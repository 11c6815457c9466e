package config

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// spec is the one serialized form of a simulation input.
type spec struct {
	Machine Machine
	Run     Run
}

// Encode returns the canonical encoding of a simulation input: the JSON
// of the machine and the normalized run. It is the run's identity
// everywhere one is needed — runner.KeyFor hashes these bytes, the
// cluster ships them as a task's spec, and the simulator's instance pool
// keys arenas by the encoding of a run with its per-run fields zeroed.
// Every config field is plain data, so none can be left out: the only
// exceptions are the cpu.Config hooks, which are tagged out of the
// encoding and make KeyFor refuse the run. Encoding fails only on a
// non-finite float.
func Encode(m Machine, r Run) ([]byte, error) {
	return json.Marshal(spec{m, r.Normalized()})
}

// Decode is the inverse of Encode. It is strict: a field the config does
// not have, a value of the wrong type, or trailing data is an error, so a
// spec from a mismatched build fails loudly rather than simulating a
// different input.
func Decode(b []byte) (Machine, Run, error) {
	var s spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Machine{}, Run{}, fmt.Errorf("config: decode: %w", err)
	}
	if dec.More() {
		return Machine{}, Run{}, fmt.Errorf("config: decode: trailing data after the spec")
	}
	return s.Machine, s.Run, nil
}
