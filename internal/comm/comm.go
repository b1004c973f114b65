// Package comm models the collective-communication primitives of
// distributed LLM execution (paper §3.4): ring all-reduce (Eq. 3),
// double-binary-tree all-reduce (Eq. 4), all-gather, reduce-scatter and
// point-to-point transfers, together with the message-size-dependent
// bandwidth utilization the paper applies to low-volume inference
// collectives.
package comm

import (
	"fmt"
	"math"

	"optimus/internal/arch"
)

// Algorithm selects the all-reduce implementation.
type Algorithm int

const (
	// DoubleBinaryTree is the bandwidth- and latency-optimal algorithm of
	// Eq. (4); its latency term grows logarithmically, which is what lets
	// inference scale to 8 GPUs (§3.4). It is the zero value because it is
	// the safe default for latency-sensitive collectives.
	DoubleBinaryTree Algorithm = iota
	// Ring is the bandwidth-optimal ring algorithm of Eq. (3); its latency
	// term grows linearly in the group size. Training collectives are
	// data-intensive and use it.
	Ring
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Ring:
		return "ring"
	case DoubleBinaryTree:
		return "double-binary-tree"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// smallMsgHalfPoint is the message size at which a link reaches half of its
// achievable bandwidth. Collectives on tiny payloads (a decode step moves
// kilobytes) never see the wire rate; the saturating form below is the
// "utilization factor to derive the actual bandwidth" of §3.4.
const smallMsgHalfPoint = 256 * 1024

// effBW returns the achievable bandwidth of link for one message of k bytes.
func effBW(link arch.Link, k float64) float64 {
	if link.BW <= 0 {
		return 0
	}
	sat := k / (k + smallMsgHalfPoint)
	return link.EffBW() * sat
}

// AllReduceTime returns the time to all-reduce k bytes across n devices
// over link with the chosen algorithm.
//
// Ring (Eq. 3):              t = 2k(n-1)/(n·BW) + 2l(n-1)
// Double binary tree (Eq. 4): t = 2k(n-1)/(n·BW) + 2l·log2(n)
func AllReduceTime(alg Algorithm, k float64, n int, link arch.Link) float64 {
	if n <= 1 || k <= 0 {
		return 0
	}
	bw := effBW(link, k/float64(n))
	if bw <= 0 {
		return math.Inf(1)
	}
	nf := float64(n)
	bwTerm := 2 * k * (nf - 1) / (nf * bw)
	var latTerm float64
	switch alg {
	case DoubleBinaryTree:
		latTerm = 2 * link.Latency * math.Log2(nf)
	default:
		latTerm = 2 * link.Latency * (nf - 1)
	}
	return bwTerm + latTerm
}

// AllGatherTime returns the time to all-gather shards totalling k bytes
// across n devices (each device starts with k/n and ends with k): one ring
// pass, half of an all-reduce.
func AllGatherTime(k float64, n int, link arch.Link) float64 {
	if n <= 1 || k <= 0 {
		return 0
	}
	bw := effBW(link, k/float64(n))
	if bw <= 0 {
		return math.Inf(1)
	}
	nf := float64(n)
	return k*(nf-1)/(nf*bw) + float64(link.Latency*(nf-1))
}

// ReduceScatterTime returns the time to reduce-scatter k bytes across n
// devices; symmetric with all-gather.
func ReduceScatterTime(k float64, n int, link arch.Link) float64 {
	return AllGatherTime(k, n, link)
}

// P2PTime returns the time to move k bytes point-to-point over link — the
// inter-stage activation transfer of pipeline parallelism.
func P2PTime(k float64, link arch.Link) float64 {
	if k <= 0 {
		return 0
	}
	bw := effBW(link, k)
	if bw <= 0 {
		return math.Inf(1)
	}
	return k/bw + link.Latency
}
