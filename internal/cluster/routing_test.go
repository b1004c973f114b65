package cluster

import (
	"hash/fnv"
	"testing"
)

// TestTenantReplicaIsFNV1a pins TenantAffinity's in-place hash to
// hash/fnv's 32-bit FNV-1a over the tenant name's bytes — empty, ASCII
// and multi-byte UTF-8 names, across fleet sizes — so no tenant moves
// replica.
func TestTenantReplicaIsFNV1a(t *testing.T) {
	for _, tenant := range []string{"", "a", "default", "chat", "batch-7", "tenant:with/odd chars", "ünïcödé", "租户", "🚀x"} {
		h := fnv.New32a()
		h.Write([]byte(tenant))
		for _, replicas := range []int{1, 2, 3, 8, 255, MaxReplicas} {
			if got, want := tenantReplica(tenant, replicas), int(h.Sum32()%uint32(replicas)); got != want {
				t.Errorf("tenantReplica(%q, %d) = %d, want hash/fnv's %d", tenant, replicas, got, want)
			}
		}
	}
}
