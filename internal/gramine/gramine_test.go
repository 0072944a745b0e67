package gramine

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

const sampleManifest = `
# Gramine manifest for the cLLM inference pipeline (cf. paper Fig 2).
libos.entrypoint = "/usr/bin/python3"
sgx.enclave_size = "64G"
sgx.max_threads = 64
sgx.debug = false
sgx.trusted_files = ["file:/usr/bin/python3", "file:/usr/lib/libipex.so"]
fs.encrypted_files = ["file:/models/llama2-7b.bin"]
fs.key_name = "default"
loader.env.OMP_NUM_THREADS = "32"  # unknown keys tolerated
`

func TestParseManifest(t *testing.T) {
	m, err := parseManifest(sampleManifest)
	if err != nil {
		t.Fatal(err)
	}
	if m.Entrypoint != "/usr/bin/python3" {
		t.Errorf("Entrypoint = %q", m.Entrypoint)
	}
	if m.EnclaveSize != 64<<30 {
		t.Errorf("EnclaveSize = %d", m.EnclaveSize)
	}
	if m.MaxThreads != 64 {
		t.Errorf("MaxThreads = %d", m.MaxThreads)
	}
	if m.Debug {
		t.Error("Debug = true")
	}
	if len(m.TrustedFiles) != 2 || m.TrustedFiles[1] != "file:/usr/lib/libipex.so" {
		t.Errorf("TrustedFiles = %v", m.TrustedFiles)
	}
	if len(m.EncryptedFiles) != 1 {
		t.Errorf("EncryptedFiles = %v", m.EncryptedFiles)
	}
	if m.KeyName != "default" {
		t.Errorf("KeyName = %q", m.KeyName)
	}
}

func TestParseManifestErrors(t *testing.T) {
	cases := []string{
		``,                              // missing everything
		`libos.entrypoint = "/bin/x"`,   // missing enclave size
		`sgx.enclave_size = "8G"`,       // missing entrypoint
		`libos.entrypoint = /bin/x`,     // unquoted string
		`sgx.max_threads = "many"`,      // bad int
		`sgx.debug = maybe`,             // bad bool
		`sgx.trusted_files = "file:/x"`, // not an array
		`sgx.trusted_files = [file:/x]`, // unquoted array element
		`this is not an assignment`,     // no '='
		`sgx.enclave_size = "-1G"`,      // negative size
		"libos.entrypoint = \"/b\"\nsgx.enclave_size = \"1G\"\nsgx.max_threads = 0", // zero threads
	}
	for i, c := range cases {
		if _, err := parseManifest(c); err == nil {
			t.Errorf("case %d parsed but should fail:\n%s", i, c)
		}
	}
}

func TestCommentInsideString(t *testing.T) {
	m, err := parseManifest(`
libos.entrypoint = "/opt/app#1/bin"
sgx.enclave_size = "1G"
sgx.max_threads = 4
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.Entrypoint != "/opt/app#1/bin" {
		t.Errorf("Entrypoint = %q, # inside string mangled", m.Entrypoint)
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"1024": 1024, "4K": 4 << 10, "512M": 512 << 20, "8G": 8 << 30, "2T": 2 << 40,
		"1k": 1 << 10, "3g": 3 << 30,
	}
	for in, want := range cases {
		got, err := parseSize(in)
		if err != nil || got != want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "G", "12Q3", "abc"} {
		if _, err := parseSize(bad); err == nil {
			t.Errorf("parseSize(%q) succeeded", bad)
		}
	}
}

func TestDefaultManifestValidates(t *testing.T) {
	m := DefaultManifest("/models/w.bin", 8<<30, 32)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.EncryptedFiles) != 1 || !strings.Contains(m.EncryptedFiles[0], "/models/w.bin") {
		t.Errorf("EncryptedFiles = %v", m.EncryptedFiles)
	}
}

func TestSyscallClassify(t *testing.T) {
	if Classify("futex") != InEnclave {
		t.Error("futex should be in-enclave")
	}
	if Classify("read") != OCALL {
		t.Error("read should be an OCALL")
	}
	if Classify("fork") != Unsupported {
		t.Error("fork should be unsupported")
	}
	if Classify("made_up_syscall") != OCALL {
		t.Error("unknown syscalls should conservatively be OCALLs")
	}
	for _, c := range []SyscallClass{InEnclave, OCALL, Unsupported} {
		if c.String() == "" {
			t.Error("empty class name")
		}
	}
}

func TestInferenceLoopProfile(t *testing.T) {
	p := Profile(InferenceLoopSyscalls())
	if p.Total != len(InferenceLoopSyscalls()) {
		t.Errorf("Total = %d", p.Total)
	}
	if p.Unsupported != 0 {
		t.Error("inference loop contains unsupported syscalls")
	}
	// The loop must be dominated by in-enclave emulation — that is why SGX
	// overheads stay below 10% for this workload (Insight 4).
	if p.InEnclave <= p.Exits {
		t.Errorf("in-enclave %d <= exits %d; loop would thrash", p.InEnclave, p.Exits)
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	key := DeriveKey([]byte("enclave-measurement"), "default")
	msg := []byte("llama2 weights: confidential")
	sealed, err := Seal(key, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unseal(key, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip mismatch")
	}
	// Ciphertext must not contain the plaintext.
	if bytes.Contains(sealed, msg) {
		t.Fatal("plaintext visible in sealed blob")
	}
}

func TestUnsealRejectsTampering(t *testing.T) {
	key := DeriveKey([]byte("m"), "k")
	sealed, err := Seal(key, []byte("secret model weights"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, 5, headerSize + 2, len(sealed) - 1} {
		tampered := append([]byte(nil), sealed...)
		tampered[pos] ^= 0x40
		if _, err := Unseal(key, tampered); err == nil {
			t.Errorf("tampering at byte %d not detected", pos)
		}
	}
	// Wrong key fails too.
	other := DeriveKey([]byte("m2"), "k")
	if _, err := Unseal(other, sealed); err == nil {
		t.Error("unseal with wrong key succeeded")
	}
	// Truncated blob fails.
	if _, err := Unseal(key, sealed[:10]); err == nil {
		t.Error("truncated blob unsealed")
	}
}

func TestSealProperty(t *testing.T) {
	key := DeriveKey([]byte("meas"), "prop")
	if err := quick.Check(func(data []byte) bool {
		sealed, err := Seal(key, data)
		if err != nil {
			return false
		}
		got, err := Unseal(key, sealed)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyDerivationSeparation(t *testing.T) {
	a := DeriveKey([]byte("m1"), "k")
	b := DeriveKey([]byte("m2"), "k")
	c := DeriveKey([]byte("m1"), "k2")
	if a == b || a == c || b == c {
		t.Error("derived keys collide across measurement/name changes")
	}
}

func TestTrustedFileVerify(t *testing.T) {
	content := []byte("binary bits")
	h := TrustedFileHash(content)
	if TrustedFileHash(content) != h {
		t.Fatal("trusted file measurement is not deterministic")
	}
	if TrustedFileHash([]byte("binary bitz")) == h {
		t.Error("modified trusted file verified")
	}
}

func TestStore(t *testing.T) {
	key := DeriveKey([]byte("m"), "store")
	s := NewStore(key)
	if err := s.Put("/models/w.bin", []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("/models/w.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatal("store round trip mismatch")
	}
	if _, err := s.Get("/nope"); err == nil {
		t.Error("missing file read succeeded")
	}
	raw, ok := s.files["/models/w.bin"] // what an attacker on the host sees
	if !ok || bytes.Contains(raw, []byte{1, 2, 3, 4}) {
		// 4 bytes could appear by chance, but with probability ~2^-30; treat
		// presence as failure.
		if bytes.Contains(raw, []byte{1, 2, 3, 4}) {
			t.Error("plaintext visible in raw store")
		}
	}
}
