package serve

import (
	"strings"
	"testing"

	"cllm/internal/enum"
)

type spelled interface {
	~int | ~uint8
	String() string
}

// spellingCase pins one enum's table: every declared value and its
// spelling, the parser's aliases, the parse error, and how values outside
// the enum print and fail the range check. The spellings are restated
// here, not read from the table, so a shifted or retyped name fails.
type spellingCase[T spelled] struct {
	tbl  *enum.Table[T]
	want map[T]string
	// parse is the exported parser, nil for an enum without one; alias
	// maps the further spellings it accepts, and bad is an input it
	// rejects with badErr.
	parse       func(string) (T, error)
	alias       map[string]T
	bad, badErr string
	// undeclared maps values outside the enum to how they print; unknown
	// is the range error's text before that, for enums that are checked.
	undeclared map[T]string
	unknown    string
}

func (c spellingCase[T]) check(t *testing.T) {
	declared := 0
	for _, name := range c.tbl.Names {
		if name != "" {
			declared++
		}
	}
	if declared != len(c.want) {
		t.Errorf("%d declared values, want %d", declared, len(c.want))
	}
	for v, s := range c.want {
		if got := v.String(); got != s {
			t.Errorf("%d prints %q, want %q", v, got, s)
		}
		if err := c.tbl.Check(v); err != nil {
			t.Errorf("Check(%s) = %v", s, err)
		}
		if c.parse == nil {
			continue
		}
		for _, in := range []string{s, " " + strings.ToUpper(s) + "\t"} {
			if got, err := c.parse(in); err != nil || got != v {
				t.Errorf("parse(%q) = %v, %v; want %s", in, got, err, s)
			}
		}
	}
	for in, v := range c.alias {
		if got, err := c.parse(in); err != nil || got != v {
			t.Errorf("alias parse(%q) = %v, %v; want %v", in, got, err, v)
		}
	}
	if c.parse != nil {
		if _, err := c.parse(c.bad); err == nil || err.Error() != c.badErr {
			t.Errorf("parse(%q) error = %v, want %s", c.bad, err, c.badErr)
		}
	}
	for v, s := range c.undeclared {
		if got := v.String(); got != s {
			t.Errorf("undeclared %d prints %q, want %q", v, got, s)
		}
		if c.unknown == "" {
			continue
		}
		if err := c.tbl.Check(v); err == nil || err.Error() != c.unknown+" "+s {
			t.Errorf("Check(%s) = %v, want %s %s", s, err, c.unknown, s)
		}
	}
}

// TestEnumSpellings pins the names the CLI parses and the exporters print
// for every serve enum.
func TestEnumSpellings(t *testing.T) {
	t.Run("LBPolicy", spellingCase[LBPolicy]{
		tbl:   &lbPolicies,
		want:  map[LBPolicy]string{RoundRobin: "round-robin", LeastLoaded: "least-loaded", PrefixAffinity: "prefix-affinity"},
		parse: ParseLBPolicy,
		alias: map[string]LBPolicy{"": RoundRobin, "rr": RoundRobin, "ll": LeastLoaded, "affinity": PrefixAffinity, "pa": PrefixAffinity, " PA ": PrefixAffinity},
		bad:   "random", badErr: `serve: unknown load-balancing policy "random" (round-robin|least-loaded|prefix-affinity)`,
		undeclared: map[LBPolicy]string{-1: "LBPolicy(-1)", 3: "LBPolicy(3)"},
		unknown:    "serve: unknown load-balancing policy",
	}.check)
	t.Run("PreemptPolicy", spellingCase[PreemptPolicy]{
		tbl:   &preemptPolicies,
		want:  map[PreemptPolicy]string{PreemptRecompute: "recompute", PreemptSwap: "swap", PreemptAuto: "auto"},
		parse: ParsePreemptPolicy,
		alias: map[string]PreemptPolicy{"": PreemptRecompute, "  ": PreemptRecompute},
		bad:   "drop", badErr: `serve: unknown preemption policy "drop" (recompute|swap|auto)`,
		undeclared: map[PreemptPolicy]string{-1: "PreemptPolicy(-1)", 3: "PreemptPolicy(3)"},
		unknown:    "serve: unknown preemption policy",
	}.check)
	t.Run("QuantileMode", spellingCase[QuantileMode]{
		tbl:   &quantileModes,
		want:  map[QuantileMode]string{QuantileExact: "exact", QuantileSketch: "sketch"},
		parse: ParseQuantileMode,
		alias: map[string]QuantileMode{"": QuantileExact},
		bad:   "approx", badErr: `serve: unknown quantile mode "approx" (exact|sketch)`,
		undeclared: map[QuantileMode]string{2: "QuantileMode(2)"},
		unknown:    "serve: unknown quantile mode",
	}.check)
	t.Run("AdmissionPolicy", spellingCase[AdmissionPolicy]{
		tbl:   &admissionPolicies,
		want:  map[AdmissionPolicy]string{AdmitFIFO: "fifo", AdmitDeadline: "deadline", AdmitShed: "shed"},
		parse: ParseAdmissionPolicy,
		alias: map[string]AdmissionPolicy{"": AdmitFIFO, "edf": AdmitDeadline, "EDF": AdmitDeadline},
		bad:   "lottery", badErr: `serve: unknown admission policy "lottery" (fifo|deadline|shed)`,
		undeclared: map[AdmissionPolicy]string{3: "AdmissionPolicy(3)"},
		unknown:    "serve: unknown admission policy",
	}.check)
	t.Run("FailurePolicy", spellingCase[FailurePolicy]{
		tbl:   &failurePolicies,
		want:  map[FailurePolicy]string{FailRequeue: "requeue", FailLost: "lost"},
		parse: ParseFailurePolicy,
		alias: map[string]FailurePolicy{"": FailRequeue},
		bad:   "explode", badErr: `serve: unknown failure policy "explode" (requeue|lost)`,
		undeclared: map[FailurePolicy]string{2: "FailurePolicy(2)"},
		unknown:    "serve: unknown failure policy",
	}.check)
	t.Run("Role", spellingCase[Role]{
		tbl:   &roles,
		want:  map[Role]string{RoleUnified: "unified", RolePrefill: "prefill", RoleDecode: "decode"},
		parse: ParseRole,
		alias: map[string]Role{"": RoleUnified},
		bad:   "both", badErr: `serve: unknown role "both" (unified|prefill|decode)`,
		undeclared: map[Role]string{3: "Role(3)"},
		unknown:    "serve: unknown role",
	}.check)
	t.Run("RequestClass", spellingCase[RequestClass]{
		tbl:        &requestClasses,
		want:       map[RequestClass]string{ClassStandard: "standard", ClassInteractive: "interactive", ClassBackground: "background"},
		undeclared: map[RequestClass]string{3: "RequestClass(3)", 255: "RequestClass(255)"},
		unknown:    "serve: unknown request class",
	}.check)
	t.Run("DropReason", spellingCase[DropReason]{
		tbl: &dropReasons,
		want: map[DropReason]string{DropKVExhausted: "kv-exhausted", DropAdmissionShed: "admission-shed",
			DropDeadlineExpired: "deadline-expired", DropFailureLost: "failure-lost"},
		undeclared: map[DropReason]string{4: "DropReason(4)"},
	}.check)
	t.Run("EventKind", spellingCase[EventKind]{
		tbl: &eventKinds,
		want: map[EventKind]string{EvArrive: "arrive", EvAdmit: "admit", EvPrefillChunk: "prefill-chunk",
			EvFirstToken: "first-token", EvDecodeRound: "decode-round", EvPreempt: "preempt",
			EvSwapOut: "swap-out", EvSwapIn: "swap-in", EvDrop: "drop", EvFinish: "finish",
			EvCrash: "crash", EvRecover: "recover", EvShed: "shed", EvRetry: "retry", EvHandoff: "handoff"},
		undeclared: map[EventKind]string{0: "EventKind(0)", 16: "EventKind(16)"},
	}.check)
	t.Run("PreemptReason", spellingCase[PreemptReason]{
		tbl: &preemptReasons,
		want: map[PreemptReason]string{ReasonNone: "none", ReasonPrefillStall: "prefill-stall",
			ReasonDecodeStall: "decode-stall", ReasonCrash: "crash"},
		undeclared: map[PreemptReason]string{4: "PreemptReason(4)"},
	}.check)

	// The per-class and per-reason report arrays are sized by constants
	// that must cover every declared value.
	if len(requestClasses.Names) != NumClasses {
		t.Errorf("%d request classes named, NumClasses = %d", len(requestClasses.Names), NumClasses)
	}
	if len(dropReasons.Names) != NumDropReasons {
		t.Errorf("%d drop reasons named, NumDropReasons = %d", len(dropReasons.Names), NumDropReasons)
	}
}
