// Autoscaling under bursty load: what does TEE elasticity cost? A
// confidential replica is not servable when its VM boots — the TD must
// accept its memory, the weights must stream in, and the attestation
// round-trip must complete before secrets are provisioned. This example
// runs the same bursty scenario against a TDX fleet twice — once paying
// the real cold start, once with free (counterfactual) elasticity — and
// then shows the cold-start-aware remedy: provisioning headroom before the
// burst instead of reacting into it. See docs/serving-model.md §10.
package main

import (
	"fmt"
	"log"

	"cllm"
)

func run(label string, cfg cllm.AutoscaleConfig) *cllm.AutoscaleReport {
	rep, err := cllm.Autoscale(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s SLO %5.1f%%  replica-hrs %.4f  cost $%.4f  $/Mtok %6.2f  coldstarts %d  TTFT p99 %.2fs\n",
		label, rep.SLOAttainment()*100, rep.ReplicaHours, rep.CostUSD, rep.USDPerMTok,
		rep.ColdStarts, rep.TTFT.P99)
	return rep
}

func main() {
	// Bursty MMPP chat traffic: lulls a single TDX replica holds at ease,
	// bursts of ~20 s that need most of the 4-replica ceiling.
	base := cllm.AutoscaleConfig{
		ServeConfig: cllm.ServeConfig{
			Scenario:   "bursty",
			RatePerSec: 0.5,
			Requests:   160,
			Knobs:      cllm.Knobs{MaxBatch: 8, TTFTSLOSec: 6},
		},
		Classes: []cllm.AutoscaleClass{{Platform: "tdx", Min: 1, Max: 4}},
		Seed:    7,
	}

	fmt.Println("naive reactive scaling (target util 0.7):")
	naiveWarm := base
	naiveWarm.NoColdStart = true
	warm := run("  free elasticity", naiveWarm)
	cold := run("  TEE cold start", base)

	// The cold-start-aware policy buys headroom: scale earlier (lower
	// target utilization) and keep a higher standing floor, so bursts land
	// on capacity that already attested instead of queueing behind a TD
	// build.
	fmt.Println("\ncold-start-aware scaling (floor 2, target util 0.4):")
	aware := base
	aware.TargetUtil = 0.4
	aware.Classes = []cllm.AutoscaleClass{{Platform: "tdx", Min: 2, Max: 4}}
	awareRep := run("  TEE cold start", aware)

	fmt.Printf("\nelasticity tax: free elasticity holds %.1f%% of requests in SLO at %.4f replica-hrs;\n",
		warm.SLOAttainment()*100, warm.ReplicaHours)
	fmt.Printf("the same policy with real cold starts holds %.1f%%, and buying the SLO back\n",
		cold.SLOAttainment()*100)
	fmt.Printf("via headroom costs %.4f replica-hrs (%.0f%% more hardware-hours than free elasticity).\n",
		awareRep.ReplicaHours, (awareRep.ReplicaHours/warm.ReplicaHours-1)*100)
}
