package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/runner"
)

func baseInputs() (config.Machine, config.Run) {
	return config.Default(), config.NewRun("vpr", core.BaseP())
}

// leaseRoundTrip ships a spec the way a lease does — inside a Task,
// through JSON — and decodes it the way the worker does.
func leaseRoundTrip(t *testing.T, spec []byte) (config.Machine, config.Run, error) {
	t.Helper()
	buf, err := json.Marshal(LeaseResponse{Task: Task{ID: "t", Spec: spec}})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got LeaseResponse
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return config.Decode(got.Task.Spec)
}

// TestSpecRoundTrip pushes representative inputs through the full wire
// path — runner.SpecFor, the lease JSON, config.Decode — and requires the
// decoded input to hash to the original content key and to reconstruct
// the original (normalized) values. This is the property the whole cluster
// rests on: a spec that does not round-trip would simulate a different
// configuration than the coordinator addressed.
func TestSpecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*config.Machine, *config.Run)
	}{
		{"default", func(*config.Machine, *config.Run) {}},
		{"scheme", func(m *config.Machine, r *config.Run) {
			r.Scheme = core.ICR(core.ECCProt, core.LookupParallel, core.ReplStores)
		}},
		{"replication", func(m *config.Machine, r *config.Run) {
			r.Repl.DecayWindow = 4096
			r.Repl.Distances = []int{32, 16, 8}
			r.Repl.Replicas = 2
			r.Repl.Victim = core.DeadFirst
			r.Repl.LeaveReplicas = true
		}},
		{"budget-and-seed", func(m *config.Machine, r *config.Run) {
			r.Instructions = 123456
			r.Seed = 99
		}},
		{"write-through", func(m *config.Machine, r *config.Run) {
			r.WriteThrough = true
			r.WriteBufferEntries = 16
		}},
		{"fault-injection", func(m *config.Machine, r *config.Run) {
			r.Fault = config.FaultConfig{Model: fault.Column, Prob: 1e-4, Seed: 42}
		}},
		{"machine-geometry", func(m *config.Machine, r *config.Run) {
			m.DL1Size *= 2
			m.DL1Assoc = 8
			m.L2Latency = 9
			m.CPU.IssueWidth = 2
		}},
		{"hints-replicate-all", func(m *config.Machine, r *config.Run) {
			r.Hints = core.NewRangePolicy()
		}},
		{"hints-ranges", func(m *config.Machine, r *config.Run) {
			r.Hints = core.NewRangePolicy(
				core.AddrRange{Start: 0, End: 1 << 20, Hint: core.Hint{Replicate: true, Replicas: 2}},
				core.AddrRange{Start: 1 << 20, End: 1 << 21},
			)
		}},
		{"extensions", func(m *config.Machine, r *config.Run) {
			r.DupCacheKB = 2
			r.ScrubInterval = 10000
			r.ScrubLines = 4
			r.Prefetch = true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, r := baseInputs()
			tc.mut(&m, &r)
			spec, wantKey, ok := runner.SpecFor(m, r)
			if !ok {
				t.Fatal("SpecFor rejected wire-safe inputs")
			}
			gotM, gotR, err := leaseRoundTrip(t, spec)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if gotKey, ok := runner.KeyFor(gotM, gotR); !ok || gotKey != wantKey {
				t.Fatalf("decoded inputs hash to %s, want %s (wire drift)", gotKey, wantKey)
			}
			if want := r.Normalized(); !reflect.DeepEqual(gotM, m) || !reflect.DeepEqual(gotR, want) {
				t.Errorf("input did not round-trip:\n got %+v %+v\nwant %+v %+v", gotM, gotR, m, want)
			}
		})
	}
}

// TestEncodeSpecRefusesOpaqueInputs: an input the key cannot fingerprint
// (a function hook) has no spec either — the coordinator falls back to
// local execution for it rather than shipping a run without its hook.
func TestEncodeSpecRefusesOpaqueInputs(t *testing.T) {
	t.Run("cpu-hook", func(t *testing.T) {
		m, r := baseInputs()
		m.CPU.EachCycle = func(uint64) {}
		if _, _, ok := runner.SpecFor(m, r); ok {
			t.Fatal("SpecFor accepted a machine with a function hook")
		}
	})
}

// TestDecodeSpecRejectsMalformedHints: a tampered or version-skewed hint
// policy must decode to an error, never to a silently different policy.
func TestDecodeSpecRejectsMalformedHints(t *testing.T) {
	m, r := baseInputs()
	r.Hints = core.NewRangePolicy(core.AddrRange{Start: 0, End: 4096})
	spec, _, ok := runner.SpecFor(m, r)
	if !ok {
		t.Fatal("SpecFor failed")
	}
	tamper := func(hints string) []byte {
		var doc map[string]map[string]json.RawMessage
		if err := json.Unmarshal(spec, &doc); err != nil {
			t.Fatal(err)
		}
		doc["Run"]["Hints"] = json.RawMessage(hints)
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, hints := range []string{
		`"telepathy"`,                         // not a policy at all
		`{"Kind":"ranges","Ranges":[]}`,       // a field the policy does not have
		`{"Ranges":[{"Start":"0","End":64}]}`, // a mistyped range bound
	} {
		if _, _, err := leaseRoundTrip(t, tamper(hints)); err == nil {
			t.Errorf("hints %s decoded without error", hints)
		}
	}
	if _, _, err := config.Decode(append(append([]byte(nil), spec...), `{}`...)); err == nil {
		t.Error("a spec with trailing data decoded without error")
	}
}

// TestSpecWireShapeOmitsHooks pins the wire shape: the spec carries the
// CPU config's data fields but not its function hooks, which are tagged
// out of the canonical encoding.
func TestSpecWireShapeOmitsHooks(t *testing.T) {
	m, r := baseInputs()
	m.CPU.IssueWidth = 3
	spec, _, ok := runner.SpecFor(m, r)
	if !ok {
		t.Fatal("SpecFor failed")
	}
	for _, hook := range []string{`"EachCycle"`, `"Halt"`} {
		if bytes.Contains(spec, []byte(hook)) {
			t.Errorf("spec carries hook field %s", hook)
		}
	}
	if !bytes.Contains(spec, []byte(`"IssueWidth":3`)) {
		t.Error("spec lost the CPU config's data fields")
	}
}
