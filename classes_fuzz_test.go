package cllm

import "testing"

// FuzzParseClasses: every class list ParseClasses accepts is non-empty,
// and each class has a platform checkPlatform accepts and replica bounds
// the scaler can honour (Max >= 1, 0 <= Min <= Max). The seed corpus holds
// the CLI's -classes rejection cases plus accepted forms.
func FuzzParseClasses(f *testing.F) {
	for _, s := range []string{
		// cllm-serve -classes rejections.
		"tdx:-1:-2", "tdx:0", ",", "foo:2",
		// Accepted forms and edge spellings.
		"tdx:2", "tdx:4,cgpu:2", "tdx:4:2", " sgx : 3 : 0 ", "tdx", "sevsnp:1", "tdx:1:2", "tdx:2:3:4",
		"tdx:x", ":2", "tdx:99999999999999999999", "tdx:2,,cgpu:1", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		classes, err := ParseClasses(s)
		if err != nil {
			if classes != nil {
				t.Fatalf("rejected %q but returned classes %+v", s, classes)
			}
			return
		}
		if len(classes) == 0 {
			t.Fatalf("%q: accepted an empty class list", s)
		}
		for _, c := range classes {
			if c.Max < 1 || c.Min < 0 || c.Min > c.Max {
				t.Fatalf("%q: accepted class %+v with bounds outside 0 <= min <= max, max >= 1", s, c)
			}
			if c.Platform == "" || checkPlatform(c.Platform) != nil {
				t.Fatalf("%q: accepted class %+v with an unknown platform", s, c)
			}
		}
	})
}
