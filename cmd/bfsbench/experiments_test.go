package main

import (
	"bytes"
	"strings"
	"testing"
)

// simCfg runs experiments in simulated-only short mode, so the tests
// stay fast and host-independent.
var simCfg = harnessConfig{Mode: "sim", Scale: 14, Seed: 1, Short: true}

// measuredCfg exercises the measured paths at tiny scale.
var measuredCfg = harnessConfig{Mode: "measured", Scale: 12, Seed: 1, Short: true}

func TestEveryExperimentRunsSimulated(t *testing.T) {
	for id, e := range experiments {
		var buf bytes.Buffer
		if err := e.run(&buf, simCfg); err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		switch id {
		case "fig4":
			// fig4 is measured-only; empty output is fine in sim mode.
		case "ext-hybrid":
			// measured-only: prints a notice in sim mode.
		default:
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", id)
			}
		}
	}
}

func TestEveryExperimentRunsMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiments exercise real memory benchmarks")
	}
	for id, e := range experiments {
		var buf bytes.Buffer
		if err := e.run(&buf, measuredCfg); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

func TestFig2OutputShape(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig2(&buf, simCfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"simulated", "depth=1", "depth=16", "[L1]", "[DRAM]"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig3OutputShowsSocketColumn(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig3(&buf, simCfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sockets") {
		t.Errorf("fig3 output missing socket column:\n%s", buf.String())
	}
}

// TestFig5MeasuredHeaderHasFourColumns checks that the measured half of
// Fig. 5 prints the paper's four variants, in the simulated half's
// order: simple, bitmap (no double check), bitmap+dc and channels.
func TestFig5MeasuredHeaderHasFourColumns(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig5(&buf, measuredCfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	var header []string
	for i, l := range lines {
		if strings.HasPrefix(l, "-- measured") && i+1 < len(lines) {
			header = strings.Fields(lines[i+1])
			break
		}
	}
	want := []string{"threads", "simple(Alg1)", "bitmap(Alg2)", "bitmap+dc(Alg2)", "channels(Alg3)"}
	if strings.Join(header, " ") != strings.Join(want, " ") {
		t.Errorf("fig5 measured header = %q, want %q:\n%s", header, want, buf.String())
	}
}

func TestTable3OutputContainsHeadlines(t *testing.T) {
	var buf bytes.Buffer
	if err := runTable3(&buf, simCfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Cray XMT", "MTA-2", "BlueGene", "paper claims 2.4x", "paper claims 5.0x"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 output missing %q", want)
		}
	}
}

func TestTable1MatchesTopology(t *testing.T) {
	var buf bytes.Buffer
	if err := runTable1(&buf, simCfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Nehalem-EP", "Nehalem-EX", "L3=24MB", "L3=8MB", "clock=2.26GHz"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4MeasuredShowsDoubleCheckEffect(t *testing.T) {
	var buf bytes.Buffer
	cfg := harnessConfig{Mode: "measured", Scale: 14, Seed: 1, Short: true}
	if err := runFig4(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "bitmap-reads") || !strings.Contains(out, "atomic-ops") {
		t.Errorf("fig4 output malformed:\n%s", out)
	}
}

func TestMeasuredGraphKinds(t *testing.T) {
	gU, err := measuredGraph(0, 1<<10, 4, 1) // uniform
	if err != nil {
		t.Fatal(err)
	}
	if gU.NumVertices() != 1<<10 {
		t.Errorf("uniform vertices = %d", gU.NumVertices())
	}
	gR, err := measuredGraph(1, 1<<10, 4, 1) // rmat
	if err != nil {
		t.Fatal(err)
	}
	if gR.NumVertices() != 1<<10 || gR.NumEdges() != 4<<10 {
		t.Errorf("rmat shape = %d/%d", gR.NumVertices(), gR.NumEdges())
	}
}

func TestHarnessConfigHelpers(t *testing.T) {
	both := harnessConfig{Mode: "both"}
	if !both.sim() || !both.measured() {
		t.Error("both mode should enable both halves")
	}
	sim := harnessConfig{Mode: "sim"}
	if !sim.sim() || sim.measured() {
		t.Error("sim mode wrong")
	}
	short := harnessConfig{Scale: 20, Short: true}
	if short.measuredN() != 1<<16 {
		t.Errorf("short measuredN = %d, want 2^16", short.measuredN())
	}
	full := harnessConfig{Scale: 18}
	if full.measuredN() != 1<<18 {
		t.Errorf("measuredN = %d, want 2^18", full.measuredN())
	}
}
