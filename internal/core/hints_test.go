package core

import "testing"

// TestReplicateAllPolicy: a range policy with no ranges is the
// replicate-all policy — every block replicates at the configured count.
func TestReplicateAllPolicy(t *testing.T) {
	h := NewRangePolicy().Hint(0x1234)
	if !h.Replicate || h.Replicas != 0 {
		t.Errorf("replicate-all hint = %+v", h)
	}
}

func TestRangePolicyMatching(t *testing.T) {
	p := NewRangePolicy(
		AddrRange{Start: 0x1000, End: 0x2000, Hint: Hint{Replicate: false}},
		AddrRange{Start: 0x2000, End: 0x3000, Hint: Hint{Replicate: true, Replicas: 2}},
	)
	cases := []struct {
		addr uint64
		want Hint
	}{
		{0x0fff, Hint{Replicate: true}},              // default
		{0x1000, Hint{Replicate: false}},             // first range start
		{0x1fff, Hint{Replicate: false}},             // first range end-1
		{0x2000, Hint{Replicate: true, Replicas: 2}}, // second range
		{0x3000, Hint{Replicate: true}},              // past second range
	}
	for _, c := range cases {
		if got := p.Hint(c.addr); got != c.want {
			t.Errorf("Hint(%#x) = %+v, want %+v", c.addr, got, c.want)
		}
	}
}

func TestHintExemptsBlocksFromReplication(t *testing.T) {
	noRepl := addrOfBlock(1)
	yesRepl := addrOfBlock(2)
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Hints = NewRangePolicy(AddrRange{
			Start: noRepl, End: noRepl + 64, Hint: Hint{Replicate: false},
		})
	})
	c.Store(0, noRepl)
	c.Store(1, yesRepl)
	if got := c.ReplicaCount(noRepl); got != 0 {
		t.Errorf("exempted block replicated %d times", got)
	}
	if got := c.ReplicaCount(yesRepl); got != 1 {
		t.Errorf("non-exempt block replica count = %d, want 1", got)
	}
	// The exempted store still counts as an attempt that created nothing.
	s := c.Stats()
	if s.ReplAttempts != 2 || s.ReplSuccesses != 1 {
		t.Errorf("stats = attempts %d successes %d, want 2/1", s.ReplAttempts, s.ReplSuccesses)
	}
}

func TestHintRaisesReplicaQuota(t *testing.T) {
	a := addrOfBlock(1)
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl.Distances = []int{4, 2} // room for two replicas
		cfg.Repl.Replicas = 1            // default quota 1
		cfg.Hints = NewRangePolicy(AddrRange{
			Start: a, End: a + 64, Hint: Hint{Replicate: true, Replicas: 2},
		})
	})
	c.Store(0, a)
	if got := c.ReplicaCount(a); got != 2 {
		t.Errorf("hinted block replica count = %d, want 2", got)
	}
	b := addrOfBlock(9) // same home set, default quota
	c.Store(1, b)
	if got := c.ReplicaCount(b); got != 1 {
		t.Errorf("default block replica count = %d, want 1", got)
	}
}

func TestHintedCacheInvariants(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Hints = NewRangePolicy(AddrRange{
			Start: 0, End: addrOfBlock(8), Hint: Hint{Replicate: false},
		})
	})
	for i := 0; i < 200; i++ {
		a := addrOfBlock(i % 24)
		if i%3 == 0 {
			c.Store(uint64(i), a)
		} else {
			c.Load(uint64(i), a)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
