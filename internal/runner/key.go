package runner

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/config"
)

// Key is the content address of one simulation: a SHA-256 over the
// canonical encoding of (config.Machine, config.Run) (see config.Encode).
// The encoding is taken over the normalized run, so two runs share a Key
// iff they are identical inputs to sim.Simulate once its defaults are
// applied. A Key is therefore safe to use for memoization and is stable
// across processes (no pointer, map-order, or per-run state leaks into it).
type Key [sha256.Size]byte

// keyVersion prefixes the hashed bytes. Changing the encoding changes
// every key by itself; bump this only to rotate keys over an unchanged
// encoding.
const keyVersion = "icr-run-key/2\n"

// String returns the key as hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyFor fingerprints a (machine, run) pair. The second result is false
// when the pair cannot be fingerprinted — a cpu hook is set, or a float is
// not finite — in which case the run must not be memoized.
func KeyFor(m config.Machine, r config.Run) (Key, bool) {
	_, k, ok := SpecFor(m, r)
	return k, ok
}

// SpecFor returns the canonical encoding of a (machine, run) pair together
// with its Key, for callers that ship the bytes (the cluster wire) as well
// as address them. ok is false exactly when KeyFor's is.
func SpecFor(m config.Machine, r config.Run) (spec []byte, k Key, ok bool) {
	// The hooks are process-local behaviour the encoding cannot carry: a
	// machine with one set has no content address.
	if m.CPU.EachCycle != nil || m.CPU.Halt != nil {
		return nil, Key{}, false
	}
	spec, err := config.Encode(m, r)
	if err != nil {
		return nil, Key{}, false
	}
	h := sha256.New()
	_, _ = h.Write([]byte(keyVersion)) // a hash.Hash Write never fails
	_, _ = h.Write(spec)
	h.Sum(k[:0])
	return spec, k, true
}
