// Quickstart: open a confidential platform, attest it, load a model through
// the sealed-weights path, generate text, and measure the full-size
// workload's performance — the minimal end-to-end cLLM flow.
package main

import (
	"fmt"
	"log"

	"cllm"
)

func main() {
	// 1. Open Intel TDX. Open() runs the measure→quote→verify attestation
	//    handshake before returning; refusing unattested enclaves is the
	//    paper's baseline security hygiene.
	session, err := cllm.Open(cllm.Config{Platform: "tdx", Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("opened %s (attested: %v)\n", session.PlatformName(), session.Attested())

	// 2. Load Llama2-7B at 1/128 scale for functional inference. The
	//    architecture (32 layers, GQA layout, SiLU MLP) matches the real
	//    model; only the dimensions shrink.
	model, err := session.LoadModel("llama2-7b", "bf16", 128)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Generate. TEEs never change outputs — this produces the same
	//    tokens on baremetal, TDX or SGX.
	gen, err := model.Generate("confidential inference for healthcare records", cllm.GenerateOptions{MaxNewTokens: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d tokens: %s\n", len(gen.Tokens), gen.Text)

	// 4. Measure the same workload at full size with the mechanistic
	//    performance model (Fig 4's configuration).
	m, err := session.Measure(cllm.Workload{
		Model: "llama2-7b", DType: "bf16", Batch: 1, InputLen: 1024, OutputLen: 128,
	}, cllm.MeasureOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full-size Llama2-7B on TDX: %.1f ms/token, %.1f tok/s, TTFT %.2f s\n",
		m.MeanTokenLatency*1e3, m.DecodeTokensPerSec, m.PrefillSeconds)

	// 5. And the cost of serving it (Fig 12's arithmetic).
	cost, err := session.EstimateCost(cllm.Workload{Model: "llama2-7b", InputLen: 128, OutputLen: 128}, cllm.MeasureOptions{}, 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("at 32 vCPUs: $%.2f/hour, $%.2f per million tokens\n", cost.HourlyUSD, cost.USDPerMTok)

	// 6. The same question under production load: a Poisson request stream
	//    into the continuous-batching scheduler, with chunked prefill
	//    bounding decode stalls. Throughput, tail latency and SLO-aware
	//    cost all emerge from the same modeled TEE mechanisms.
	served, err := session.Serve(cllm.ServeConfig{
		Model: "llama2-7b", RatePerSec: 8, Requests: 64, Knobs: cllm.Knobs{ChunkTokens: 512},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving at 8 req/s: %.1f tok/s goodput, TTFT p99 %.2fs, %.0f%% within SLO\n",
		served.GoodputTokensPerSec, served.TTFT.P99, served.SLOAttainment()*100)
	if served.SLOFeasible {
		fmt.Printf("SLO fleet: %d replica(s), $%.2f per million served tokens\n",
			served.ReplicasAtSLO, served.USDPerMTokAtSLO)
	}
}
