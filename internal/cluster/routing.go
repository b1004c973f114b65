package cluster

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// Routing selects how the router splits the fleet-wide arrival stream
// across replicas. Every policy is deterministic: given one seeded stream
// and one fleet, the assignment is a pure function of it (the load-aware
// policies sample replica state only at arrival-time barriers, where it
// depends on nothing but the pushes so far).
type Routing int

const (
	// RoundRobin assigns arrival i to replica i mod R — the load-blind
	// baseline every load-aware policy is compared against.
	RoundRobin Routing = iota
	// LeastQueue assigns each arrival to the replica with the fewest
	// in-flight requests (queued + running) at the arrival instant, ties
	// broken by lowest replica index.
	LeastQueue
	// LeastKV assigns each arrival to the replica with the least
	// committed KV-cache bytes at the arrival instant (pages × page bytes
	// under the paged policies, reservations under ReserveFull), ties
	// broken by fewest in-flight then lowest index.
	LeastKV
	// TenantAffinity pins every tenant to one replica (FNV-1a hash of the
	// tenant name mod R) — the session-stickiness pattern that keeps a
	// tenant's KV reuse and noisy-neighbor blast radius on one box.
	TenantAffinity
)

// routings enumerates every routing policy in enum order (the sweep axis
// and the CLI both iterate it).
var routings = []Routing{RoundRobin, LeastQueue, LeastKV, TenantAffinity}

// String names the routing policy.
func (r Routing) String() string {
	switch r {
	case RoundRobin:
		return "round-robin"
	case LeastQueue:
		return "least-queue"
	case LeastKV:
		return "least-kv"
	case TenantAffinity:
		return "tenant-affinity"
	default:
		return fmt.Sprintf("Routing(%d)", int(r))
	}
}

// MarshalJSON renders the routing name, so JSON artifacts compared across
// the routing axis say "least-kv", not a bare enum int.
func (r Routing) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.String())
}

// UnmarshalJSON parses the rendered routing name back.
func (r *Routing) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := ParseRouting(s)
	if err != nil {
		return err
	}
	*r = v
	return nil
}

// ParseRouting parses a routing-policy name (the CLI flag syntax).
func ParseRouting(s string) (Routing, error) {
	switch s {
	case "round-robin", "rr":
		return RoundRobin, nil
	case "least-queue", "lq":
		return LeastQueue, nil
	case "least-kv", "lkv":
		return LeastKV, nil
	case "tenant-affinity", "affinity":
		return TenantAffinity, nil
	default:
		return 0, fmt.Errorf("cluster: unknown routing policy %q (round-robin|least-queue|least-kv|tenant-affinity)", s)
	}
}

// valid reports whether r is a known routing policy (Spec validation).
func (r Routing) valid() bool {
	return r >= RoundRobin && r <= TenantAffinity
}

// tenantReplica is TenantAffinity's stable assignment: FNV-1a over the
// tenant name, mod the replica count. Pure string math — identical on
// every platform and run.
func tenantReplica(tenant string, replicas int) int {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	return int(h.Sum32() % uint32(replicas))
}
