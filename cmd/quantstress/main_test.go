package main

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain doubles the test binary as the real soak driver: when
// re-exec'd with QUANTSTRESS_BE_CLI=1 it runs main() instead of the
// tests, which is what lets TestKillNineResume kill -9 an actual
// quantstress process mid-soak.
func TestMain(m *testing.M) {
	if os.Getenv("QUANTSTRESS_BE_CLI") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestParseFlags(t *testing.T) {
	var errb bytes.Buffer
	cfg, err := parseFlags([]string{"-algo", "dcs", "-reshard", "7, 2,5", "-ops", "1000"}, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.algo != "dcs" || cfg.ops != 1000 {
		t.Fatalf("parsed %+v", cfg)
	}
	if len(cfg.reshardPlan) != 3 || cfg.reshardPlan[0] != 7 || cfg.reshardPlan[2] != 5 {
		t.Fatalf("reshard plan %v", cfg.reshardPlan)
	}

	for _, bad := range [][]string{
		{"-reshard", "x"},
		{"-ops", "0"},
		{"-writers", "0"},
		{"-resume"}, // requires -ckpt-dir
	} {
		if _, err := parseFlags(bad, &errb); err == nil {
			t.Errorf("args %v accepted", bad)
		}
	}
}

func TestBuildContainers(t *testing.T) {
	for _, algo := range []string{"kll", "gkarray", "gkadaptive", "mrl99", "random", "qdigest"} {
		cfg := &config{algo: algo, eps: 0.05, bits: 14, seed: 1, shards: 2}
		cash, turn, err := buildContainers(cfg)
		if err != nil || cash == nil || turn != nil {
			t.Errorf("%s: cash=%v turn=%v err=%v", algo, cash != nil, turn != nil, err)
		}
	}
	for _, algo := range []string{"dcs", "dcm"} {
		cfg := &config{algo: algo, eps: 0.05, bits: 14, seed: 1, shards: 2}
		cash, turn, err := buildContainers(cfg)
		if err != nil || turn == nil || cash != nil {
			t.Errorf("%s: cash=%v turn=%v err=%v", algo, cash != nil, turn != nil, err)
		}
	}
	if _, _, err := buildContainers(&config{algo: "bogus", eps: 0.05, bits: 14, shards: 2}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestGenerators(t *testing.T) {
	for _, dist := range []string{"uniform", "zipf", "sorted", "reversed", "ooo"} {
		cfg := &config{dist: dist, bits: 12, seed: 3, zipfS: 1.2, oooWindow: 16}
		if _, err := generator(cfg, 0); err != nil {
			t.Errorf("%s: %v", dist, err)
		}
	}
	if _, err := generator(&config{dist: "bogus", bits: 12}, 0); err == nil {
		t.Error("unknown distribution accepted")
	}
}

// soakCfg is a short deterministic in-process run; overrides mutate it.
func soakCfg(algo string) *config {
	return &config{
		algo: algo, eps: 0.02, bits: 12, seed: 1,
		shards: 3, writers: 2, readers: 1,
		ops: 12000, batch: 256,
		dist: "uniform", zipfS: 1.1, oooWindow: 32,
		ckptEvery: 4000, verifyEvery: 6000,
	}
}

func runSoak(t *testing.T, cfg *config) (string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(cfg, &out, &errb); code != 0 {
		t.Fatalf("soak exit %d\nstderr:\n%s", code, errb.String())
	}
	return out.String(), errb.String()
}

func TestShortSoakCashElastic(t *testing.T) {
	cfg := soakCfg("kll")
	cfg.reshardPlan = []int{5, 2}
	cfg.retargetEps = 0.04
	out, _ := runSoak(t, cfg)
	if !strings.Contains(out, "PASS") {
		t.Fatalf("no PASS in output:\n%s", out)
	}
	if !strings.Contains(out, "reshards=2 retargets=1") {
		t.Fatalf("elastic events missing:\n%s", out)
	}
}

func TestShortSoakMRLGrowReshard(t *testing.T) {
	// The historically worst shape: merge-based grow reshard on MRL99.
	cfg := soakCfg("mrl99")
	cfg.reshardPlan = []int{6}
	runSoak(t, cfg)
}

func TestShortSoakTurnstile(t *testing.T) {
	cfg := soakCfg("dcs")
	cfg.reshardPlan = []int{4}
	cfg.retargetEps = 0.04 // turnstile retarget must be rejected, not crash
	out, _ := runSoak(t, cfg)
	if !strings.Contains(out, "PASS") {
		t.Fatalf("no PASS in output:\n%s", out)
	}
}

// TestTurnstileRetargetWaitsForWriters pins the rejected-retarget check
// to the pause gate. A writer mid-batch holds the gate's read side and
// may delete at any moment; the check compares the count before and
// after the rejected retarget, so it must wait for the gate rather than
// read the count under the writer's deletes.
func TestTurnstileRetargetWaitsForWriters(t *testing.T) {
	cfg := soakCfg("dcs")
	cfg.retargetEps = 0.04
	_, turn, err := buildContainers(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{cfg: cfg, out: io.Discard, turn: turn}
	xs := make([]uint64, 2048)
	for i := range xs {
		xs[i] = uint64(i * 7 % (1 << cfg.bits))
	}
	turn.InsertBatch(xs)

	h.gate.RLock() // a writer's batch in flight
	done := make(chan struct{})
	go func() {
		h.doRetarget()
		close(done)
	}()
	turn.DeleteBatch(xs[:512])
	select {
	case <-done:
		t.Fatal("the retarget check ran while a writer held the gate")
	case <-time.After(50 * time.Millisecond):
	}
	turn.DeleteBatch(xs[512:1024])
	h.gate.RUnlock()
	<-done

	if len(h.violations) != 0 {
		t.Fatalf("violations: %v", h.violations)
	}
	if h.retargets != 1 {
		t.Fatalf("retargets = %d, want 1", h.retargets)
	}
	if got := turn.Count(); got != 1024 {
		t.Fatalf("count %d after the rejected retarget, want 1024", got)
	}
}

func TestShortSoakFaults(t *testing.T) {
	cfg := soakCfg("gkarray")
	cfg.ckptDir = filepath.Join(t.TempDir(), "ck")
	cfg.faults = true
	out, _ := runSoak(t, cfg)
	if !strings.Contains(out, "checkpoints=") {
		t.Fatalf("no checkpoint events:\n%s", out)
	}
}

func hasCheckpoint(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			return true
		}
	}
	return false
}

// TestKillNineResume is the soak harness's durability acceptance test:
// a real quantstress process is SIGKILLed mid-soak after its first
// checkpoint publishes, and a -resume run recovers the durable state
// and finishes its own soak cleanly on top of it.
func TestKillNineResume(t *testing.T) {
	if testing.Short() {
		t.Skip("forks and kills real processes")
	}
	dir := filepath.Join(t.TempDir(), "ckpt")

	cmd := exec.Command(os.Args[0],
		"-algo", "kll", "-bits", "12", "-ops", "50000000", "-batch", "128",
		"-writers", "2", "-readers", "1",
		"-ckpt-dir", dir, "-ckpt-every", "3000")
	cmd.Env = append(os.Environ(), "QUANTSTRESS_BE_CLI=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !hasCheckpoint(dir) {
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatal("no checkpoint appeared within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait() // reap; the kill makes this an error by design

	cmd2 := exec.Command(os.Args[0],
		"-resume", "-ckpt-dir", dir,
		"-algo", "kll", "-bits", "12", "-ops", "20000", "-batch", "256",
		"-writers", "2", "-readers", "1", "-ckpt-every", "8000")
	cmd2.Env = append(os.Environ(), "QUANTSTRESS_BE_CLI=1")
	var out, errb bytes.Buffer
	cmd2.Stdout = &out
	cmd2.Stderr = &errb
	if err := cmd2.Run(); err != nil {
		t.Fatalf("resume run failed: %v\nstderr:\n%s", err, errb.String())
	}
	if !strings.Contains(out.String(), "resumed from checkpoint") {
		t.Fatalf("resume marker missing:\nstdout:\n%s\nstderr:\n%s", out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Fatalf("resumed soak did not pass:\n%s", out.String())
	}
}
