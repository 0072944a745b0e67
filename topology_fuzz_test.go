package cllm

import (
	"strings"
	"testing"

	"cllm/internal/serve"
)

// FuzzParseTopology: every group ParseTopology accepts has at least one
// replica, a non-empty platform name and a role the serving layer parses,
// with at most one group per comma-separated item. The seed corpus holds
// the CLI's -topology rejection cases plus accepted forms.
func FuzzParseTopology(f *testing.F) {
	for _, s := range []string{
		// cllm-serve -topology rejections (some fail later, at fleet
		// construction or flag cross-checks, and parse here).
		"cgpu:0=prefill", "tdx=writer", "cgpu:1=prefill", "cgpu:1=prefill,tdx:2=decode", "tdx:2",
		// Accepted forms and edge spellings.
		"tdx", " tdx : 4 = Decode ", "cgpu:2=prefill,tdx:4=decode", "", ",", "=decode", ":3", "tdx:=prefill",
		"tdx:-1", "tdx:99999999999999999999", "tdx=", "a:1:2=prefill",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		groups, err := ParseTopology(s)
		if err != nil {
			if groups != nil {
				t.Fatalf("rejected %q but returned groups %+v", s, groups)
			}
			return
		}
		if len(groups) == 0 {
			t.Fatalf("%q: accepted an empty topology", s)
		}
		if n := strings.Count(s, ",") + 1; len(groups) > n {
			t.Fatalf("%q: %d groups from %d items", s, len(groups), n)
		}
		for _, g := range groups {
			if g.Replicas < 1 {
				t.Fatalf("%q: accepted group %+v with %d replicas", s, g, g.Replicas)
			}
			if strings.TrimSpace(g.Platform) == "" {
				t.Fatalf("%q: accepted group %+v without a platform", s, g)
			}
			if _, err := serve.ParseRole(g.Role); err != nil {
				t.Fatalf("%q: accepted group %+v with an invalid role: %v", s, g, err)
			}
		}
	})
}
