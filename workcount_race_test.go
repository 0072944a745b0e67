//go:build race

package cllm

// Under the race detector sync.Pool drops pooled buffers at random, so a
// run's allocations are not the pinned ones: TestWorkCounts skips its
// go.* legs.
func init() { raceDetector = true }
