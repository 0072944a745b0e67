// Package enum names the values of a small integer enum from one
// declaration, which its String, Parse, range check and error hint all
// read.
package enum

import (
	"fmt"
	"strings"
)

// Table declares the spellings of enum type T.
type Table[T ~int | ~uint8] struct {
	// Names is indexed by value; "" marks a value that is not declared.
	Names []string
	// Alias maps further lower-case spellings Parse accepts to their
	// value; the key "" gives the default an empty string parses to.
	Alias map[string]T
	// Errors read "<Prefix>: unknown <Noun> ..."; undeclared values print
	// as Type(n).
	Prefix, Noun, Type string
}

func (t *Table[T]) declared(v T) bool {
	return int(v) >= 0 && int(v) < len(t.Names) && t.Names[v] != ""
}

// String names v, or prints an undeclared value as Type(n).
func (t *Table[T]) String(v T) string {
	if t.declared(v) {
		return t.Names[v]
	}
	return fmt.Sprintf("%s(%d)", t.Type, int(v))
}

// Parse resolves a name or alias, ignoring case and surrounding space.
func (t *Table[T]) Parse(s string) (T, error) {
	k := strings.ToLower(strings.TrimSpace(s))
	if v, ok := t.Alias[k]; ok {
		return v, nil
	}
	for i, name := range t.Names {
		if name != "" && name == k {
			return T(i), nil
		}
	}
	return 0, fmt.Errorf("%s: unknown %s %q (%s)", t.Prefix, t.Noun, s, t.Choices())
}

// Check rejects a value that is not declared.
func (t *Table[T]) Check(v T) error {
	if t.declared(v) {
		return nil
	}
	return fmt.Errorf("%s: unknown %s %s", t.Prefix, t.Noun, t.String(v))
}

// Choices lists the declared names in value order, separated by "|".
func (t *Table[T]) Choices() string {
	var names []string
	for _, name := range t.Names {
		if name != "" {
			names = append(names, name)
		}
	}
	return strings.Join(names, "|")
}
