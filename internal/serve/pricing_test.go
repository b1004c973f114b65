package serve

import (
	"testing"

	"optimus/internal/arch"
	"optimus/internal/tech"
)

// filledSlots counts the pricing table's filled prefill and decode slots.
func filledSlots(p *pricing) int {
	n := 0
	for _, t := range p.prefillTab {
		if t > 0 {
			n++
		}
	}
	for _, ln := range p.decodeTab {
		if ln.base > 0 {
			n++
		}
	}
	return n
}

// TestEnvelopeSharesPricingTables pins who prices through which table.
// Instances armed on one Envelope under equal step-cost keys hold one
// table; a replica of another tensor-parallel degree holds its own. A
// Runner re-armed under an equal key keeps its table warm, and under a
// changed key starts cold; a Runner whose table is still shared on a live
// envelope leaves it to the instances there rather than rekeying it.
func TestEnvelopeSharesPricingTables(t *testing.T) {
	s := spec0(t)
	s.Rate, s.Requests = 2, 24
	capSpec, times, shapes := capacityOf(t, s)
	sys2, err := arch.SystemOf(arch.A100(), 2, 8, tech.NVLink3, tech.IBNDR)
	if err != nil {
		t.Fatal(err)
	}
	wide := capSpec
	wide.System, wide.TP = sys2, 2
	drive := func(t *testing.T, in *Instance) {
		t.Helper()
		for i, at := range times {
			if err := in.Push(shapes[i], at); err != nil {
				t.Fatal(err)
			}
		}
		in.Drain()
		if _, err := in.Result(); err != nil {
			t.Fatal(err)
		}
	}
	env := new(Envelope)
	if err := env.Set(shapes); err != nil {
		t.Fatal(err)
	}
	a, b, c := new(Runner), new(Runner), new(Runner)
	ia, err := a.Instance(capSpec, env)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := b.Instance(capSpec, env)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := c.Instance(wide, env)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("equal specs share", func(t *testing.T) {
		if ia.sim.price != &a.sim.own || ib.sim.price != ia.sim.price {
			t.Fatal("two instances armed on one envelope with equal specs hold different pricing tables")
		}
		drive(t, ia)
		filled := filledSlots(ia.sim.price)
		if filled == 0 {
			t.Fatal("driving the first instance filled no pricing slot")
		}
		drive(t, ib)
		if got := filledSlots(ia.sim.price); got != filled {
			t.Errorf("replaying the same pushes on the sharing instance filled %d more slots", got-filled)
		}
	})

	t.Run("heterogeneous pair does not share", func(t *testing.T) {
		if ic.sim.price == ia.sim.price || ic.sim.price != &c.sim.own {
			t.Fatal("a TP=2 instance prices through the TP=1 instances' table")
		}
		if ic.sim.price.key.spec.TP != 2 || ia.sim.price.key.spec.TP != 1 {
			t.Fatalf("table keys carry TP %d and %d, want 2 and 1", ic.sim.price.key.spec.TP, ia.sim.price.key.spec.TP)
		}
	})

	t.Run("pooled re-arm", func(t *testing.T) {
		// Setting the envelope again ends the instances built on it, so
		// each Runner takes its own table back.
		if err := env.Set(shapes); err != nil {
			t.Fatal(err)
		}
		warm := filledSlots(&a.sim.own)
		again, err := a.Instance(capSpec, env)
		if err != nil {
			t.Fatal(err)
		}
		if again.sim.price != &a.sim.own || filledSlots(again.sim.price) != warm {
			t.Fatalf("a re-arm under an equal key left %d of %d slots warm", filledSlots(again.sim.price), warm)
		}
		if err := env.Set(shapes); err != nil {
			t.Fatal(err)
		}
		cold, err := a.Instance(wide, env)
		if err != nil {
			t.Fatal(err)
		}
		if cold.sim.price != &a.sim.own || filledSlots(cold.sim.price) != 0 || cold.sim.price.key.spec.TP != 2 {
			t.Fatalf("a re-arm under a changed key kept %d filled slots", filledSlots(cold.sim.price))
		}
		// b now shares a's table on the live envelope; a, re-armed
		// elsewhere under the old key, must not rekey it under b.
		shared, err := b.Instance(wide, env)
		if err != nil {
			t.Fatal(err)
		}
		if shared.sim.price != &a.sim.own {
			t.Fatal("the second TP=2 instance on the envelope does not share the first's table")
		}
		if _, err := a.Run(s); err != nil {
			t.Fatal(err)
		}
		if a.sim.price == &a.sim.own || shared.sim.price.key.spec.TP != 2 {
			t.Fatal("a Run on the Runner rekeyed the table a live instance shares")
		}
	})
}
