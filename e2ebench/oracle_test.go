package main

import (
	"io"
	"testing"
)

// TestOracleCheck feeds the oracle replies that break each of its
// rules and checks that every one is caught, and that a right reply
// passes.
func TestOracleCheck(t *testing.T) {
	fl := &fleet{}
	for i, idle := range []float64{0.9, 0.9, 0.1} {
		h := &fleetHost{
			name:     []string{"127.0.1.1:5000", "127.0.1.2:5000", "127.0.1.3:5000"}[i],
			bogomips: 3000,
			memTotal: 1 << 30,
			v:        hostVals{idle: idle, user: (1 - idle) * 0.7, sys: (1 - idle) * 0.3, memFreeMB: 512},
		}
		h.history = []truthEntry{{at: 1000, v: h.v}}
		fl.hosts = append(fl.hosts, h)
	}
	o := newOracle(fl, 1e9, io.Discard)
	asked, err := o.text("host_cpu_free > 0.5\nuser_denied_host1 = \"127.0.1.2\"\n")
	if err != nil {
		t.Fatal(err)
	}
	// What Connect's second round sends after 127.0.1.9 refused: the
	// appended slot reuses user_denied_host1, so on the wire the user's
	// own denied host is no longer denied.
	wire, err := o.text(asked.detail + "\nuser_denied_host1 = \"127.0.1.9:5000\"")
	if err != nil {
		t.Fatal(err)
	}
	const ok, bad = true, false
	for _, c := range []struct {
		name    string
		t       *textInfo
		n       int
		servers []string
		want    bool
	}{
		{"qualified", asked, 2, []string{"127.0.1.1:5000"}, ok},
		{"denied", asked, 2, []string{"127.0.1.2:5000"}, bad},
		{"duplicate", asked, 2, []string{"127.0.1.1:5000", "127.0.1.1:5000"}, bad},
		{"unqualified", asked, 2, []string{"127.0.1.3:5000"}, bad},
		{"too many", asked, 1, []string{"127.0.1.1:5000", "127.0.1.3:5000"}, bad},
		{"not in the fleet", asked, 2, []string{"127.0.1.7:5000"}, bad},
		{"denied by the asked text only", wire, 2, []string{"127.0.1.2:5000"}, bad},
	} {
		before := o.violations
		if got := o.check(c.t, asked, c.n, 2000, c.servers); got != c.want {
			t.Errorf("%s: check = %v, want %v", c.name, got, c.want)
		}
		if c.want == bad && o.violations == before {
			t.Errorf("%s: no violation counted", c.name)
		}
	}
	if !o.check(wire, wire, 2, 2000, []string{"127.0.1.2:5000"}) {
		t.Errorf("the wire text alone should not deny 127.0.1.2")
	}
}
