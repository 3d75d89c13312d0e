package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/game"
)

// reportPins are the sha256 digests of Result.Report() for small default-
// seed batches (α ∈ {2,10,100}, 4 trajectories per α) across every
// scheduler, both move sets and the three cost axes. Any drift in the RNG
// stream, the scan order or a probe verdict changes a report, so it fails
// here instead of only in the end-to-end benchmark digest. Swap moves and
// the breakpoint scheduler (a full scan per step) cost more per step, so
// their batches are smaller.
var reportPins = []struct {
	sched   dynamics.Scheduler
	moves   string // "ps" or "bge"
	variant string // "default", "max" or "mul"
	n       int
	steps   int
	sha     string
}{
	{dynamics.SchedulerUniform, "ps", "default", 60, 300, "14ee34499c249ed588106f5550ad4b96c60f3eb8e2757ef4de3205b3ade45e3f"},
	{dynamics.SchedulerUniform, "ps", "max", 60, 300, "395f78d16f66c9e19a60d93d46544326e2127360735d330751d63017fe15624e"},
	{dynamics.SchedulerUniform, "ps", "mul", 60, 300, "cd68276b68fe9a19d66b5ea1ff92bc7a100345dbc36e6c5562ac1f43aa584d29"},
	{dynamics.SchedulerUniform, "bge", "default", 30, 150, "1cde3b4a3e6da924142679cba73b7401941818fdf4235647ac62b72e8fad1a2a"},
	{dynamics.SchedulerUniform, "bge", "max", 30, 150, "8ba3c0cde52b6a493d96a720c82fe30f3f7cf0822d89bf07d4b070760db781ba"},
	{dynamics.SchedulerUniform, "bge", "mul", 30, 150, "2a134d6ecfa568b934457c4952c4400da8cafca06b1dcde73a278f7ca479e411"},
	{dynamics.SchedulerRoundRobin, "ps", "default", 60, 300, "36f47a0a02d0ef276f55f363db15d8263fc50abafeae3cf29ab8ca674882fb81"},
	{dynamics.SchedulerRoundRobin, "ps", "max", 60, 300, "166640d14111ba058be90182f4555748a450e8ea3cad9120605a5aa44e693f10"},
	{dynamics.SchedulerRoundRobin, "ps", "mul", 60, 300, "a9b942435d17992dd44dc9aef38c3019e746e95b5837a65d7970078c9089b160"},
	{dynamics.SchedulerRoundRobin, "bge", "default", 30, 150, "491f21e8a2a9902cb54e3b54d175078059fc8fd3da8ba298b6fe080a98a8cef7"},
	{dynamics.SchedulerRoundRobin, "bge", "max", 30, 150, "55a314312bb4986eef5c70e78d9fa0b1fbfc52efb466b994e9a34a86f9bfadd0"},
	{dynamics.SchedulerRoundRobin, "bge", "mul", 30, 150, "4728329e55951ae0acae834b0a98c59e8d87f523431ea124e9500999a8e5d93c"},
	{dynamics.SchedulerBreakpoint, "ps", "default", 24, 80, "5fce0ae794e590f8c1362bd091b0adc0434131dff3e27305fca9aabefd35f7c2"},
	{dynamics.SchedulerBreakpoint, "ps", "max", 24, 80, "39511662aa5dc8008b708daedce49b027cbc408f59a4a260752332a6fe18f167"},
	{dynamics.SchedulerBreakpoint, "ps", "mul", 24, 80, "52982ce0f126cb74a5fe0b9d77a6e261566ab59cb339e7725dd64e6531d34554"},
	{dynamics.SchedulerBreakpoint, "bge", "default", 16, 60, "9872d4b0087c272915f180a08bf31ecdd28777a34566fa9155da888debac6523"},
	{dynamics.SchedulerBreakpoint, "bge", "max", 16, 60, "fc956526b0e003f319939112791eb2aab31feb7da26cd8f9124247fff3c2ec9d"},
	{dynamics.SchedulerBreakpoint, "bge", "mul", 16, 60, "c87a7836c1c8c2e77e7b3463fe97795413e3a7875b196c81563f1806e50fccf3"},
}

// TestReportPins runs each pinned batch and compares its report digest.
func TestReportPins(t *testing.T) {
	kinds := map[string][]dynamics.Kind{
		"ps":  {dynamics.RemoveKind, dynamics.AddKind},
		"bge": {dynamics.RemoveKind, dynamics.AddKind, dynamics.SwapKind},
	}
	for _, p := range reportPins {
		spec := p.variant
		if spec == "mul" {
			spec = fmt.Sprintf("mul:0=3/2,mul:%d=1/2", p.n-1)
		}
		v, err := game.ParseVariant(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), Options{
			N:            p.n,
			Alphas:       []game.Alpha{game.A(2), game.A(10), game.A(100)},
			Trajectories: 4,
			MaxSteps:     p.steps,
			Kinds:        kinds[p.moves],
			Scheduler:    p.sched,
			Variant:      v,
			Workers:      2,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(res.Report()))
		if got := hex.EncodeToString(sum[:]); got != p.sha {
			t.Errorf("%v %s %s: report sha256 %s, want %s\n%s", p.sched, p.moves, p.variant, got, p.sha, res.Report())
		}
	}
}
