// Fleet sizing: how many confidential replicas does a RAG-style workload
// need to hold its SLO, and which load-balancing policy makes the fleet
// cheapest? The fleet is simulated end to end (dispatch skew, per-replica
// queueing and prefix-cache locality included) rather than extrapolated
// from one replica's throughput — see docs/serving-model.md §6.
package main

import (
	"fmt"
	"log"

	"cllm"
)

func main() {
	sess, err := cllm.Open(cllm.Config{Platform: "tdx", Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// RAG-style traffic: 16 document-set prefixes, each request sharing the
	// leading 75% of a 1024-token prompt with its group, at a fleet rate of
	// 3 req/s. Chunked prefill keeps decode cadence steady.
	base := cllm.ServeConfig{
		Model:      "llama2-7b",
		InputLen:   1024,
		OutputLen:  32,
		RatePerSec: 3,
		Requests:   48,
		Knobs: cllm.Knobs{
			MaxBatch: 16, ChunkTokens: 256, TTFTSLOSec: 4,
			PrefixSharing: true, PrefixGroups: 16, PrefixFrac: 0.75,
		},
	}

	fmt.Println("policy comparison at 4 replicas:")
	for _, policy := range []cllm.LBPolicy{cllm.RoundRobin, cllm.LeastLoaded, cllm.PrefixAffinity} {
		cfg := base
		cfg.Replicas = 4
		cfg.LBPolicy = policy
		rep, err := sess.Serve(cfg)
		if err != nil {
			log.Fatal(err)
		}
		cost := "-"
		if rep.SLOFeasible {
			cost = fmt.Sprintf("$%.2f/Mtok", rep.USDPerMTokAtSLO)
		}
		fmt.Printf("  %-16s goodput %6.1f tok/s  SLO %3.0f%%  TTFT p50 %.2fs  prefix hits %6d tok  %s\n",
			policy, rep.GoodputTokensPerSec, rep.SLOAttainment()*100,
			rep.TTFT.P50, rep.PrefixCacheHitTokens, cost)
	}

	// First the PR-1 way: extrapolate the fleet from one replica's
	// SLO-compliant rate (cloud.ReplicasForRate under the hood).
	single := base
	rep, err := sess.Serve(single)
	if err != nil {
		log.Fatal(err)
	}
	if rep.SLOFeasible {
		fmt.Printf("\nextrapolated from one replica: %d replicas ($%.2f/h)\n",
			rep.ReplicasAtSLO, rep.FleetHourlyUSD)
	} else {
		fmt.Println("\nextrapolated from one replica: infeasible (no request met SLO)")
	}

	// Then by simulation: smallest replica count whose *simulated* SLO
	// attainment reaches 95% under prefix-affinity dispatch — dispatch
	// skew, queueing and cache locality included.
	fmt.Println("sizing by fleet simulation (prefix-affinity):")
	for n := 2; n <= 6; n++ {
		cfg := base
		cfg.Replicas = n
		cfg.LBPolicy = cllm.PrefixAffinity
		rep, err := sess.Serve(cfg)
		if err != nil {
			log.Fatal(err)
		}
		marker := ""
		if rep.SLOAttainment() >= 0.95 {
			marker = "  ← smallest SLO-compliant fleet"
		}
		fmt.Printf("  %d replica(s): SLO %3.0f%%, $%.2f/h fleet%s\n",
			n, rep.SLOAttainment()*100, rep.FleetHourlyUSD, marker)
		if marker != "" {
			break
		}
	}
}
