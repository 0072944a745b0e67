// Package gramine implements the process-TEE software layer the paper runs
// SGX workloads on: a Gramine-style manifest describing the enclave,
// trusted-file integrity measurement, a syscall classifier that
// decides which calls the libOS can emulate inside the enclave versus which
// force an expensive enclave exit (OCALL), and an encrypted file store for
// sealed model weights.
package gramine

import "fmt"

// EnclaveBuildBytesPerSec is the EADD+EEXTEND throughput of enclave
// construction: every page of the initial enclave image (the libOS, the
// runtime, and — for sealed models — the weight image) is added and
// measured before EINIT can seal the identity. It makes SGX cold starts
// scale with the enclave image, which is why the autoscaling simulator
// charges SGX the steepest scale-up latency per byte.
const EnclaveBuildBytesPerSec = 1.8e9

// Manifest mirrors the fields of a Gramine manifest the paper's Fig 2 shows:
// entrypoint, enclave size, thread count, trusted and encrypted files.
type Manifest struct {
	// Entrypoint is the binary the libOS starts (libos.entrypoint).
	Entrypoint string
	// EnclaveSize is sgx.enclave_size in bytes.
	EnclaveSize int64
	// MaxThreads is sgx.max_threads.
	MaxThreads int
	// TrustedFiles are integrity-protected, world-readable inputs.
	TrustedFiles []string
	// EncryptedFiles are confidentiality+integrity protected paths.
	EncryptedFiles []string
	// KeyName selects the sealing key (fs.insecure__keys or PF key).
	KeyName string
	// Debug enables the (insecure) debug enclave.
	Debug bool
}

// Validate checks the manifest is runnable.
func (m *Manifest) Validate() error {
	switch {
	case m.Entrypoint == "":
		return fmt.Errorf("gramine: manifest missing libos.entrypoint")
	case m.EnclaveSize <= 0:
		return fmt.Errorf("gramine: sgx.enclave_size must be positive")
	case m.MaxThreads <= 0:
		return fmt.Errorf("gramine: sgx.max_threads must be positive")
	}
	return nil
}

// DefaultManifest returns the manifest used by the inference pipeline,
// mirroring the paper's Fig 2 excerpt.
func DefaultManifest(modelPath string, enclaveSize int64, threads int) *Manifest {
	return &Manifest{
		Entrypoint:     "/usr/bin/cllm-infer",
		EnclaveSize:    enclaveSize,
		MaxThreads:     threads,
		TrustedFiles:   []string{"file:/usr/bin/cllm-infer", "file:/etc/tokenizer.json"},
		EncryptedFiles: []string{"file:" + modelPath},
		KeyName:        "default",
	}
}
