// Cost planner: given a confidential-inference workload, find the cheapest
// compliant deployment — TDX CPU instances across vCPU counts versus the
// confidential H100 — reproducing the paper's Fig 12/13 decision procedure
// (Insight 11: small batches and inputs favor CPU TEEs; large ones favor
// the cGPU).
package main

import (
	"fmt"
	"log"

	"cllm"
)

func main() {
	scenarios := []struct {
		name     string
		workload cllm.Workload
	}{
		{"interactive chat (batch 1, short prompts)", cllm.Workload{Model: "llama2-7b", Batch: 1, InputLen: 128, OutputLen: 128}},
		{"batch summarization (batch 16)", cllm.Workload{Model: "llama2-7b", Batch: 16, InputLen: 128, OutputLen: 128}},
		{"bulk serving (batch 64)", cllm.Workload{Model: "llama2-7b", Batch: 64, InputLen: 128, OutputLen: 128}},
		{"long-document QA (batch 4, 2048-token prompts)", cllm.Workload{Model: "llama2-7b", Batch: 4, InputLen: 2048, OutputLen: 128}},
	}

	tdx, err := cllm.Open(cllm.Config{Platform: "tdx", System: "EMR2", Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	cgpu, err := cllm.Open(cllm.Config{Platform: "cgpu", Seed: 11})
	if err != nil {
		log.Fatal(err)
	}

	for _, sc := range scenarios {
		fmt.Printf("\n%s\n", sc.name)
		bestCost := 0.0
		bestV := 0
		for _, vcpus := range []int{8, 16, 32, 48, 60} {
			est, err := tdx.EstimateCost(sc.workload, cllm.MeasureOptions{}, vcpus)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  TDX %2d vCPUs: $%6.2f/Mtok ($%.2f/h)\n", vcpus, est.USDPerMTok, est.HourlyUSD)
			if bestV == 0 || est.USDPerMTok < bestCost {
				bestCost, bestV = est.USDPerMTok, vcpus
			}
		}
		gpuEst, err := cgpu.EstimateCost(sc.workload, cllm.MeasureOptions{}, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  cGPU (H100):  $%6.2f/Mtok ($%.2f/h)\n", gpuEst.USDPerMTok, gpuEst.HourlyUSD)

		if bestCost < gpuEst.USDPerMTok {
			fmt.Printf("  → recommend TDX @ %d vCPUs (cGPU is %.0f%% more expensive)\n",
				bestV, (gpuEst.USDPerMTok-bestCost)/bestCost*100)
		} else {
			fmt.Printf("  → recommend confidential H100 (TDX is %.0f%% more expensive)\n",
				(bestCost-gpuEst.USDPerMTok)/gpuEst.USDPerMTok*100)
		}
		fmt.Println("  note: CPU TEEs also encrypt DRAM and the socket interconnect;")
		fmt.Println("        the H100 leaves HBM unencrypted (Table I) — for the strictest")
		fmt.Println("        threat models the CPU deployment wins regardless of cost.")
	}

	// Single-request $/Mtok assumes the instance is always busy. Under real
	// load, SLOs decide how much of the rented fleet is actually useful —
	// simulate a served fleet instead of extrapolating (see
	// examples/fleetsizing for the full comparison).
	fmt.Println("\nserved fleet check (TDX, 8 req/s, chat workload):")
	served, err := tdx.Serve(cllm.ServeConfig{
		Model: "llama2-7b", RatePerSec: 8, Requests: 64,
		Replicas: 2, LBPolicy: cllm.LeastLoaded, Knobs: cllm.Knobs{ChunkTokens: 512},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  2 replicas: %.0f%% of requests within SLO, $%.2f/Mtok served\n",
		served.SLOAttainment()*100, served.USDPerMTokAtSLO)
}
