#!/usr/bin/env bash
# check-goldens.sh — diff the CLI and example outputs against the golden
# files in testdata/golden/. Builds cllm-serve, cllm-trace and cllm-bench,
# runs a fixed set of argument vectors (fixed-fleet sweeps, fleets, a
# disaggregated topology, faults, four elastic runs, attribution, deadline
# admission on a least-loaded fleet, observed runs with and without
# attribution, an attributed one-platform prefill/decode split, an
# attributed and observed elastic run, two operator traces) plus every
# example below and `cllm-bench -exp all` in quick and full mode, and fails
# on any byte difference.
# Every run is deterministic under its seed and takes well under a second.
#
# Usage (from anywhere in the repository):
#
#	bash scripts/check-goldens.sh            # compare
#	bash scripts/check-goldens.sh --update   # re-capture the goldens
#
# Goldens are amd64 captures: other architectures may fuse multiply-adds
# and move the last digit of a printed float.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$(pwd)
golden=$root/testdata/golden
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out=$tmp/out
mkdir -p "$out"

go build -o "$tmp/cllm-serve" ./cmd/cllm-serve
go build -o "$tmp/cllm-trace" ./cmd/cllm-trace
go build -o "$tmp/cllm-bench" ./cmd/cllm-bench

# serve NAME ARGS... runs cllm-serve inside the output directory, so
# relative artifact paths (-metrics-out x.prom) land next to NAME.txt.
serve() {
	local name=$1
	shift
	(cd "$out" && "$tmp/cllm-serve" "$@" >"$name.txt")
}

serve serve-01-default
serve serve-02-csv-swap-sketch -format csv -platform tdx,cgpu -preempt swap -quantile-mode sketch
serve serve-03-fleet-affinity -replicas 4 -lb-policy prefix-affinity -prefix-share -chunk-size 512 -format json
serve serve-04-topology -topology cgpu:1=prefill,tdx:3=decode -rate 12 -in 2048 -out 128 -format csv
serve serve-05-faults -platform tdx -rate 8 -requests 64 -rate-mults 1,2 -fail-mtbf 30 -fail-policy lost \
	-admission shed -retry-max 2 -retry-backoff 0.5 -format csv
serve serve-06-autoscale-diurnal -autoscale -scenario diurnal -classes tdx:2,cgpu:2 \
	-metrics-out serve-06-autoscale-diurnal.prom -timeseries-out serve-06-autoscale-diurnal.csv
serve serve-07-autoscale-warm -autoscale -scenario bursty -classes tdx:4 -no-cold-start -prefix-share \
	-chunk-size 256 -format csv
serve serve-08-autoscale-uniform -autoscale -classes tdx:3:2 -dispatch uniform -demand-alpha 0.5 \
	-target-util 0.5 -requests 96 -format json
serve serve-09-attrib -platform tdx,cgpu -rate 8 -requests 16 -preempt swap -attrib \
	-attrib-csv serve-09-attrib.phases.csv
serve serve-10-autoscale-sketch-swap -autoscale -scenario bursty -classes tdx:3 -quantile-mode sketch \
	-epoch-requests 64 -preempt swap -format csv
serve serve-11-fleet-deadline -platform sgx -replicas 3 -lb-policy least-loaded -admission deadline \
	-preempt auto -rate 6 -requests 96 -in 1024 -out 128 -rate-mults 1,2 -format csv
serve serve-12-trace -platform tdx -rate 4 -requests 16 -rate-mults 1 -preempt swap \
	-trace-out serve-12-trace.json
serve serve-13-trace-attrib -platform tdx -rate 4 -requests 16 -rate-mults 1 -preempt swap -attrib \
	-trace-out serve-13-trace-attrib.json -metrics-out serve-13-trace-attrib.prom
serve serve-14-topology-attrib -topology tdx:1=prefill,tdx:2=decode -rate 4 -requests 16 -in 512 -attrib \
	-attrib-csv serve-14-topology-attrib.phases.csv
serve serve-15-autoscale-attrib -autoscale -classes tdx:2 -attrib \
	-attrib-csv serve-15-autoscale-attrib.phases.csv -metrics-out serve-15-autoscale-attrib.prom

# Operator traces: the per-kind sums and step totals cllm-trace prints are
# the only CLI output computed from the flat operator list.
"$tmp/cllm-trace" -model llama2-7b -dtype bf16 -batch 4 -input 1024 -phase decode >"$out/trace-01-llama2-7b-bf16-decode.txt"
"$tmp/cllm-trace" -model llama2-70b -dtype int8 -batch 2 -input 512 -phase prefill >"$out/trace-02-llama2-70b-int8-prefill.txt"

for ex in quickstart costplanner fleetsizing autoscaling healthcare finance-rag; do
	go run "./examples/$ex" >"$out/example-$ex.txt"
done

"$tmp/cllm-bench" -exp all -quick >"$out/bench-all-quick.txt"
"$tmp/cllm-bench" -exp all >"$out/bench-all.txt"

if [ "${1:-}" = "--update" ]; then
	rm -rf "$golden"
	mkdir -p "$golden"
	cp "$out"/* "$golden"/
	echo "check-goldens: captured $(ls "$golden" | wc -l) files into testdata/golden"
	exit 0
fi

if ! diff -r "$golden" "$out"; then
	echo "check-goldens: output differs from testdata/golden (see diff above)" >&2
	exit 1
fi
echo "check-goldens: $(ls "$golden" | wc -l) outputs match testdata/golden"
