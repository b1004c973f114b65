// Package other is outside the determinism scope list: the same
// constructs that fire in the serve fixture must stay silent here.
package other

import (
	"math/rand"
	"time"
)

func Clock() time.Time {
	return time.Now()
}

func GlobalRand() float64 {
	return rand.Float64()
}

func RangeMap(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func Spawn(done chan<- int) {
	go func() { done <- 1 }()
}
