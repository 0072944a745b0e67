package gramine

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
)

// Sealed-file store: the encrypted-files feature of the manifest. Files are
// protected with AES-256-CTR for confidentiality and HMAC-SHA256 for
// integrity (encrypt-then-MAC), keyed by a sealing key that in real SGX
// derives from the CPU's fuse key and the enclave measurement. Model weights
// at rest are protected exactly this way in the paper's deployment; under
// TDX the equivalent duty falls to LUKS full-disk encryption (§III-B).

const (
	sealMagic  = "GRS1"
	keySize    = 32
	ivSize     = aes.BlockSize
	macSize    = sha256.Size
	headerSize = len(sealMagic) + 8 // magic + payload length
)

// SealKey is a 256-bit sealing key.
type SealKey [keySize]byte

// DeriveKey derives a sealing key from an enclave measurement and key name,
// standing in for the EGETKEY derivation.
func DeriveKey(measurement []byte, keyName string) SealKey {
	h := hmac.New(sha256.New, measurement)
	h.Write([]byte("gramine-seal-key:"))
	h.Write([]byte(keyName))
	var k SealKey
	copy(k[:], h.Sum(nil))
	return k
}

// Seal encrypts and authenticates plaintext.
func Seal(key SealKey, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("gramine: seal: %w", err)
	}
	iv := make([]byte, ivSize)
	if _, err := io.ReadFull(rand.Reader, iv); err != nil {
		return nil, fmt.Errorf("gramine: seal iv: %w", err)
	}
	out := make([]byte, 0, headerSize+ivSize+len(plaintext)+macSize)
	out = append(out, sealMagic...)
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(plaintext)))
	out = append(out, lenBuf[:]...)
	out = append(out, iv...)
	ct := make([]byte, len(plaintext))
	cipher.NewCTR(block, iv).XORKeyStream(ct, plaintext)
	out = append(out, ct...)
	mac := hmac.New(sha256.New, key[:])
	mac.Write(out)
	out = mac.Sum(out)
	return out, nil
}

// Unseal verifies and decrypts a sealed blob. Any tampering (header, IV,
// ciphertext or MAC) fails.
func Unseal(key SealKey, sealed []byte) ([]byte, error) {
	if len(sealed) < headerSize+ivSize+macSize {
		return nil, fmt.Errorf("gramine: sealed blob too short (%d bytes)", len(sealed))
	}
	if string(sealed[:len(sealMagic)]) != sealMagic {
		return nil, fmt.Errorf("gramine: bad seal magic")
	}
	body := sealed[:len(sealed)-macSize]
	wantMAC := sealed[len(sealed)-macSize:]
	mac := hmac.New(sha256.New, key[:])
	mac.Write(body)
	if !hmac.Equal(mac.Sum(nil), wantMAC) {
		return nil, fmt.Errorf("gramine: integrity check failed")
	}
	n := binary.BigEndian.Uint64(sealed[len(sealMagic):headerSize])
	iv := sealed[headerSize : headerSize+ivSize]
	ct := sealed[headerSize+ivSize : len(sealed)-macSize]
	if uint64(len(ct)) != n {
		return nil, fmt.Errorf("gramine: length mismatch: header %d, body %d", n, len(ct))
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("gramine: unseal: %w", err)
	}
	pt := make([]byte, len(ct))
	cipher.NewCTR(block, iv).XORKeyStream(pt, ct)
	return pt, nil
}

// TrustedFileHash returns the SHA-256 measurement Gramine records for each
// trusted file at manifest-generation time and verifies at open time.
func TrustedFileHash(content []byte) [32]byte {
	return sha256.Sum256(content)
}

// Store is an in-memory encrypted file store keyed by path, standing in for
// the protected filesystem mounts of a Gramine deployment.
type Store struct {
	key   SealKey
	files map[string][]byte
}

// NewStore creates an empty store sealed under key.
func NewStore(key SealKey) *Store {
	return &Store{key: key, files: make(map[string][]byte)}
}

// Put seals and stores content at path.
func (s *Store) Put(path string, content []byte) error {
	sealed, err := Seal(s.key, content)
	if err != nil {
		return err
	}
	s.files[path] = sealed
	return nil
}

// Get unseals the content at path.
func (s *Store) Get(path string) ([]byte, error) {
	sealed, ok := s.files[path]
	if !ok {
		return nil, fmt.Errorf("gramine: no such sealed file %q", path)
	}
	return Unseal(s.key, sealed)
}

// Raw returns the sealed bytes (what an attacker on the host sees).
func (s *Store) Raw(path string) ([]byte, bool) {
	b, ok := s.files[path]
	return b, ok
}
