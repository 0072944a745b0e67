package gramine

import (
	"fmt"
	"strconv"
	"strings"
)

// The manifest parser lives with the tests: the inference pipeline builds
// its manifest in code (DefaultManifest), and these tests drive
// Manifest.Validate through parsed manifest text.

// parseManifest parses the TOML subset Gramine manifests use: dotted
// `key = value` assignments with string, integer, boolean and string-array
// values, plus `#` comments. Sizes accept Gramine's "512M"/"8G" suffixes.
func parseManifest(text string) (*Manifest, error) {
	m := &Manifest{}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, val, err := splitAssignment(line)
		if err != nil {
			return nil, fmt.Errorf("gramine: line %d: %w", lineNo+1, err)
		}
		if err := m.apply(key, val); err != nil {
			return nil, fmt.Errorf("gramine: line %d: %w", lineNo+1, err)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func stripComment(line string) string {
	inStr := false
	for i, r := range line {
		switch r {
		case '"':
			inStr = !inStr
		case '#':
			if !inStr {
				return line[:i]
			}
		}
	}
	return line
}

func splitAssignment(line string) (key, val string, err error) {
	eq := strings.Index(line, "=")
	if eq < 0 {
		return "", "", fmt.Errorf("expected key = value, got %q", line)
	}
	key = strings.TrimSpace(line[:eq])
	val = strings.TrimSpace(line[eq+1:])
	if key == "" || val == "" {
		return "", "", fmt.Errorf("empty key or value in %q", line)
	}
	return key, val, nil
}

func (m *Manifest) apply(key, val string) error {
	switch key {
	case "libos.entrypoint":
		s, err := parseString(val)
		if err != nil {
			return err
		}
		m.Entrypoint = s
	case "sgx.enclave_size":
		s, err := parseString(val)
		if err != nil {
			return err
		}
		n, err := parseSize(s)
		if err != nil {
			return err
		}
		m.EnclaveSize = n
	case "sgx.max_threads":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("sgx.max_threads: %w", err)
		}
		m.MaxThreads = n
	case "sgx.debug":
		b, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("sgx.debug: %w", err)
		}
		m.Debug = b
	case "sgx.trusted_files":
		files, err := parseStringArray(val)
		if err != nil {
			return err
		}
		m.TrustedFiles = files
	case "fs.encrypted_files":
		files, err := parseStringArray(val)
		if err != nil {
			return err
		}
		m.EncryptedFiles = files
	case "fs.key_name":
		s, err := parseString(val)
		if err != nil {
			return err
		}
		m.KeyName = s
	default:
		// Unknown keys are tolerated, as Gramine tolerates loader.env.* etc.
	}
	return nil
}

func parseString(val string) (string, error) {
	if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
		return "", fmt.Errorf("expected quoted string, got %q", val)
	}
	return val[1 : len(val)-1], nil
}

func parseStringArray(val string) ([]string, error) {
	if len(val) < 2 || val[0] != '[' || val[len(val)-1] != ']' {
		return nil, fmt.Errorf("expected array, got %q", val)
	}
	inner := strings.TrimSpace(val[1 : len(val)-1])
	if inner == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(inner, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		s, err := parseString(part)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// parseSize parses Gramine-style sizes: "1024", "512M", "8G", "64K".
func parseSize(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty size")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'K', 'k':
		mult = 1 << 10
		s = s[:len(s)-1]
	case 'M', 'm':
		mult = 1 << 20
		s = s[:len(s)-1]
	case 'G', 'g':
		mult = 1 << 30
		s = s[:len(s)-1]
	case 'T', 't':
		mult = 1 << 40
		s = s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("negative size %q", s)
	}
	return n * mult, nil
}
