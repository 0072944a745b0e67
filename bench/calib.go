package main

import (
	"math"
	"time"
)

// referenceCalSec is calibrate's median time on the runner the seed
// baseline was recorded on (a 2-vCPU Xeon at 2.1 GHz, Go 1.24). Host times
// are reported in seconds of that runner: a child's times are scaled by
// referenceCalSec / (calibrate's time around that child).
const referenceCalSec = 0.025

// calibrate times a fixed amount of host work shaped like the simulator's
// hot paths: hashing struct keys into a map, chasing pointers through heap
// nodes in scattered order, and float arithmetic. The parent runs it just
// before and just after each child, so the pair brackets the child in time.
// On a shared host whose speed drifts with the neighbours' load, the ratio
// of a child's time to calibrate's cancels the drift; a change to the
// simulator moves only the child's time. The structures are allocated once
// per call, so the loop itself puts no load on the garbage collector.
func calibrate() float64 {
	const (
		n      = 4096
		rounds = 80
	)
	type node struct {
		next *node
		v    float64
	}
	nodes := make([]node, n)
	m := make(map[[2]int]float64, n)
	xs := make([]float64, 0, n)
	// Link the nodes in a scattered order so the chase misses the cache
	// the way the scheduler's request states do.
	for i := range nodes {
		nodes[i] = node{next: &nodes[(i*2654435761+1)%n], v: float64(i)}
	}
	nodes[0].next = nil
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	acc := 0.0
	start := time.Now()
	for round := 0; round < rounds; round++ {
		clear(m)
		xs = xs[:0]
		for i := 0; i < n; i++ {
			r := next()
			m[[2]int{int(r % 1024), i & 63}] += math.Sqrt(float64(r%1000) + 1)
			xs = append(xs, math.Log1p(float64(r%4096)))
		}
		steps := 0
		for p := &nodes[1]; p != nil && steps < n; p = p.next {
			r := next()
			acc += p.v * m[[2]int{int(r % 1024), int(r>>20) & 63}]
			steps++
		}
		for _, v := range xs {
			acc += v
		}
	}
	sink += int(acc) & 1
	return time.Since(start).Seconds()
}
