package main

import (
	"testing"
)

// The CLI handlers are plain functions returning errors; exercising them
// end-to-end keeps flag plumbing, name resolution and output formatting
// covered.

func TestCmdTrain(t *testing.T) {
	if err := cmdTrain([]string{"-model", "gpt-22b", "-dp", "1", "-tp", "8", "-pp", "1", "-batch", "4", "-recompute", "full"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrain([]string{"-model", "gpt-175b", "-interleave", "2", "-sp", "-recompute", "selective"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrain([]string{"-model", "no-such-model"}); err == nil {
		t.Error("unknown model should fail")
	}
	if err := cmdTrain([]string{"-recompute", "maybe"}); err == nil {
		t.Error("bad recompute mode should fail")
	}
	if err := cmdTrain([]string{"-precision", "fp128"}); err == nil {
		t.Error("bad precision should fail")
	}
}

func TestCmdInfer(t *testing.T) {
	if err := cmdInfer([]string{"-model", "llama2-13b", "-gpus", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInfer([]string{"-device", "warp-core"}); err == nil {
		t.Error("unknown device should fail")
	}
}

func TestCmdMemory(t *testing.T) {
	if err := cmdMemory([]string{"-model", "gpt-530b", "-tp", "8", "-pp", "35", "-batch", "280"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMemory([]string{"-model", "gpt-175b", "-pp", "7"}); err == nil {
		t.Error("indivisible layers should fail")
	}
}

func TestCmdGEMMTable(t *testing.T) {
	if err := cmdGEMMTable([]string{"-model", "llama2-13b", "-device", "h100"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdDSE(t *testing.T) {
	if err := cmdDSE([]string{"-node", "n5", "-dram", "hbm2e", "-net", "xdr-x8", "-gpus", "64"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDSE([]string{"-node", "n99"}); err == nil {
		t.Error("unknown node should fail")
	}
	if err := cmdDSE([]string{"-dram", "ddr3"}); err == nil {
		t.Error("unknown dram should fail")
	}
}

func TestCmdPlan(t *testing.T) {
	if err := cmdPlan([]string{"-model", "gpt-22b", "-gpus", "8", "-batch", "8", "-top", "3"}); err != nil {
		t.Fatal(err)
	}
	const noFit = "no feasible strategy for GPT-530B on 8 devices (batch 64)"
	if err := cmdPlan([]string{"-model", "gpt-530b", "-gpus", "8"}); err == nil || err.Error() != noFit {
		t.Errorf("plan with no fitting strategy: got %v, want %q", err, noFit)
	}
}

func TestCmdCost(t *testing.T) {
	if err := cmdCost([]string{"-model", "gpt-22b", "-gpus", "8", "-batch", "8", "-tokens", "1e9"}); err != nil {
		t.Fatal(err)
	}
	const noFit = "no feasible strategy for GPT-530B on 8 devices (batch 64)"
	if err := cmdCost([]string{"-model", "gpt-530b", "-gpus", "8"}); err == nil || err.Error() != noFit {
		t.Errorf("cost with no fitting strategy: got %v, want %q", err, noFit)
	}
}

func TestCmdGraph(t *testing.T) {
	if err := cmdGraph([]string{"-model", "llama2-7b", "-layers", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdReproduce(t *testing.T) {
	if err := cmdReproduce([]string{"table4"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdReproduce([]string{"-format", "csv", "fig8"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdReproduce([]string{"-format", "json", "fig4"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdReproduce([]string{}); err == nil {
		t.Error("missing experiment should fail")
	}
	if err := cmdReproduce([]string{"fig99"}); err == nil {
		t.Error("unknown experiment should fail")
	}
	if err := cmdReproduce([]string{"-format", "xml", "fig4"}); err == nil {
		t.Error("unknown format should fail")
	}
}

func TestCmdExportAndDeviceFile(t *testing.T) {
	if err := cmdExport([]string{"-device", "h100"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdExport([]string{"-device", "starship"}); err == nil {
		t.Error("unknown preset should fail")
	}
	if _, err := loadDeviceFile("/does/not/exist.json"); err == nil {
		t.Error("missing device file should fail")
	}
}

func TestCmdList(t *testing.T) {
	if err := cmdList(nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmdValidate(t *testing.T) {
	if err := cmdValidate(nil); err != nil {
		t.Fatal(err)
	}
}
