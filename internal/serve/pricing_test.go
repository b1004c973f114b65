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
// table; a replica of another tensor-parallel degree holds its own. An
// instance re-armed on new contents under a key the envelope priced
// before finds that table warm, and under a changed key gets a previous
// table rekeyed, cold; a table in use on the contents is never rekeyed
// under the instances sharing it, by another key on the envelope or by a
// Run of a Runner that built one of them.
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
	instance := func(t *testing.T, rn *Runner, s Spec, env *Envelope) *Instance {
		t.Helper()
		in, err := rn.Instance(s, env)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	set := func(t *testing.T, env *Envelope) {
		t.Helper()
		if err := env.Set(shapes); err != nil {
			t.Fatal(err)
		}
	}
	env := new(Envelope)
	set(t, env)
	a, b, c := new(Runner), new(Runner), new(Runner)
	ia, ib, ic := instance(t, a, capSpec, env), instance(t, b, capSpec, env), instance(t, c, wide, env)

	t.Run("equal specs share", func(t *testing.T) {
		if ib.sim.price != ia.sim.price {
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
		if ic.sim.price == ia.sim.price {
			t.Fatal("a TP=2 instance prices through the TP=1 instances' table")
		}
		if ic.sim.price.key.spec.TP != 2 || ia.sim.price.key.spec.TP != 1 {
			t.Fatalf("table keys carry TP %d and %d, want 2 and 1", ic.sim.price.key.spec.TP, ia.sim.price.key.spec.TP)
		}
	})

	t.Run("pooled re-arm", func(t *testing.T) {
		// Setting the envelope again ends the instances built on it; the
		// next instance under an equal key finds their table warm.
		warmTable := ia.sim.price
		warm := filledSlots(warmTable)
		set(t, env)
		again := instance(t, a, capSpec, env)
		if again.sim.price != warmTable || filledSlots(again.sim.price) != warm {
			t.Fatalf("a re-arm under an equal key left %d of %d slots warm", filledSlots(again.sim.price), warm)
		}
		// A fresh envelope's contents priced only TP=1, so its TP=2
		// instance gets that table rekeyed and empty.
		env2 := new(Envelope)
		set(t, env2)
		drive(t, instance(t, a, capSpec, env2))
		spare := a.sim.price
		set(t, env2)
		cold := instance(t, a, wide, env2)
		if cold.sim.price != spare || filledSlots(cold.sim.price) != 0 || cold.sim.price.key.spec.TP != 2 {
			t.Fatalf("a re-arm under a changed key kept %d filled slots", filledSlots(cold.sim.price))
		}
		// b shares a's table on the live contents; neither a TP=1
		// instance on them nor a Run on a may rekey it under b.
		shared := instance(t, b, wide, env2)
		if shared.sim.price != cold.sim.price {
			t.Fatal("the second TP=2 instance on the envelope does not share the first's table")
		}
		if narrow := instance(t, c, capSpec, env2); narrow.sim.price == shared.sim.price {
			t.Fatal("a TP=1 instance rekeyed the table TP=2 instances share")
		}
		if _, err := a.Run(s); err != nil {
			t.Fatal(err)
		}
		if a.sim.price == shared.sim.price || shared.sim.price.key.spec.TP != 2 {
			t.Fatal("a Run on the Runner rekeyed the table a live instance shares")
		}
	})
}

// TestRunPricesWarmAfterFleetInstance pins that a Runner's Run tables
// belong to the Envelope it draws into: building an instance on a fleet's
// live envelope in between leaves the next Run's table warm.
func TestRunPricesWarmAfterFleetInstance(t *testing.T) {
	s := spec0(t)
	s.Rate, s.Requests = 2, 24
	capSpec, _, shapes := capacityOf(t, s)
	rn := new(Runner)
	if _, err := rn.Run(s); err != nil {
		t.Fatal(err)
	}
	table, warm := rn.sim.price, filledSlots(rn.sim.price)
	fleet := new(Envelope)
	if err := fleet.Set(shapes); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Runner{rn, new(Runner)} {
		if _, err := r.Instance(capSpec, fleet); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rn.Run(s); err != nil {
		t.Fatal(err)
	}
	if rn.sim.price != table || filledSlots(table) != warm {
		t.Fatalf("the Run after a fleet instance priced through another table (%d of %d slots warm)", filledSlots(rn.sim.price), warm)
	}
}
