// Package serve is a determinism fixture: its base name matches the
// analyzer's scope list, so every construct here runs the real checks.
package serve

import (
	"math/rand"
	"time"
)

func Clock() time.Duration {
	start := time.Now()      // want `time\.Now reads the wall clock`
	return time.Since(start) // want `time\.Since reads the wall clock`
}

func Instrumented() time.Time {
	return time.Now() //lint:deterministic instrumentation only, never reaches results
}

func BareSuppression() time.Time {
	//lint:deterministic
	return time.Now() // want `bare //lint:deterministic directive`
}

func GlobalRand() float64 {
	return rand.Float64() // want `rand\.Float64 uses the process-global rand source`
}

func Unseeded(src rand.Source) *rand.Rand {
	return rand.New(src) // want `rand\.New without an inline seeded`
}

func Seeded() *rand.Rand {
	return rand.New(rand.NewSource(42))
}

func RangeMap(m map[string]int) int {
	total := 0
	for _, v := range m { // want `map iteration order is randomized`
		total += v
	}
	return total
}

func RangeMapFold(m map[string]int) int {
	total := 0
	//lint:deterministic order-insensitive sum
	for _, v := range m {
		total += v
	}
	return total
}

func RangeSlice(s []int) int {
	total := 0
	for _, v := range s {
		total += v
	}
	return total
}

func Spawn(done chan<- int) {
	go func() { done <- 1 }() // want `go statement: goroutine scheduling varies per run`
}

func Pool(work func()) {
	//lint:deterministic every worker writes its own slot, so results do not depend on scheduling
	go work()
}
