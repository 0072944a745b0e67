package serve

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseFailPlan: every plan ParseFailPlan accepts names a valid
// replica index and a finite, non-negative crash time — the invariants
// Config.normalize relies on — with at most one point per comma-separated
// token. The seed corpus holds the CLI's -fail-plan rejection cases plus
// accepted forms.
func FuzzParseFailPlan(f *testing.F) {
	for _, s := range []string{
		// cllm-serve -fail-plan rejections.
		"a@30", "0@-5", "30",
		// Accepted forms and edge spellings.
		"", "0@30,1@45.5", " 2 @ 0 ", "1.5", "0@1e400", "-0", "0@NaN", "1@+Inf", ",", "@5", "3@",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		plan, err := ParseFailPlan(s)
		if err != nil {
			if plan != nil {
				t.Fatalf("rejected %q but returned plan %+v", s, plan)
			}
			return
		}
		if n := strings.Count(s, ",") + 1; len(plan) > n {
			t.Fatalf("%q: %d points from %d tokens", s, len(plan), n)
		}
		for _, fp := range plan {
			if fp.Replica < 0 {
				t.Fatalf("%q: accepted negative replica %d", s, fp.Replica)
			}
			if math.IsNaN(fp.TimeSec) || math.IsInf(fp.TimeSec, 0) || fp.TimeSec < 0 {
				t.Fatalf("%q: accepted crash time %g", s, fp.TimeSec)
			}
		}
	})
}
