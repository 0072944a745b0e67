package enum

import "testing"

type color uint8

type level int

// colors has holes at 0 and 2, as an enum starting at iota + 1 or with a
// retired value would.
var colors = Table[color]{
	Names:  []string{1: "red", 3: "dark-blue"},
	Alias:  map[string]color{"navy": 3},
	Prefix: "paint", Noun: "color", Type: "color",
}

func TestTable(t *testing.T) {
	for v, want := range map[color]string{0: "color(0)", 1: "red", 2: "color(2)", 3: "dark-blue", 4: "color(4)", 255: "color(255)"} {
		if got := colors.String(v); got != want {
			t.Errorf("String(%d) = %q, want %q", v, got, want)
		}
		err := colors.Check(v)
		if declared := want[0] != 'c'; declared != (err == nil) {
			t.Errorf("Check(%d) = %v", v, err)
		}
	}
	if err := colors.Check(2); err == nil || err.Error() != "paint: unknown color color(2)" {
		t.Errorf("Check(2) = %v", err)
	}
	for in, want := range map[string]color{"red": 1, " RED ": 1, "Dark-Blue": 3, "navy": 3, "\tNavy\n": 3} {
		if got, err := colors.Parse(in); err != nil || got != want {
			t.Errorf("Parse(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	// Without a "" alias the empty string is not a spelling, and a hole's
	// empty name never matches.
	for _, in := range []string{"", "  ", "color(2)", "green"} {
		if _, err := colors.Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
	if _, err := colors.Parse(" Green"); err == nil || err.Error() != `paint: unknown color " Green" (red|dark-blue)` {
		t.Errorf("Parse error = %v", err)
	}
	if got := colors.Choices(); got != "red|dark-blue" {
		t.Errorf("Choices() = %q", got)
	}

	levels := Table[level]{Names: []string{"low", "high"}, Prefix: "x", Noun: "level", Type: "level"}
	for v, want := range map[level]string{-1: "level(-1)", 0: "low", 1: "high", 2: "level(2)"} {
		if got := levels.String(v); got != want {
			t.Errorf("String(%d) = %q, want %q", v, got, want)
		}
	}
	if err := levels.Check(-1); err == nil || err.Error() != "x: unknown level level(-1)" {
		t.Errorf("Check(-1) = %v", err)
	}
}
