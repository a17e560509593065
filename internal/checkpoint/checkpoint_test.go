package checkpoint_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamquantiles/internal/checkpoint"
	"streamquantiles/internal/core"
	"streamquantiles/internal/faultio"
)

const dir = "/ckpt"

func openMem(t *testing.T, fs checkpoint.FS, opts ...checkpoint.Option) *checkpoint.Checkpointer {
	t.Helper()
	ck, err := checkpoint.Open(dir, append([]checkpoint.Option{checkpoint.WithFS(fs)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

func TestSaveRecoverRoundTrip(t *testing.T) {
	fs := faultio.NewMemFS()
	ck := openMem(t, fs)
	payload := []byte("the summary state")
	gen, err := ck.Save("gkarray", payload)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 0 {
		t.Fatalf("first generation = %d, want 0", gen)
	}
	got, report, err := checkpoint.Recover(fs, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("recovered %q, want %q", got, payload)
	}
	if !report.Loaded || report.Generation != 0 || report.Label != "gkarray" || len(report.Skipped) != 0 {
		t.Fatalf("report %+v", report)
	}
}

func TestGenerationsAdvanceAndSurviveReopen(t *testing.T) {
	fs := faultio.NewMemFS()
	ck := openMem(t, fs)
	for i := 0; i < 3; i++ {
		if _, err := ck.Save("x", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A restarted process must not reuse a published generation.
	ck2 := openMem(t, fs)
	if ck2.NextGeneration() != 3 {
		t.Fatalf("reopened next generation = %d, want 3", ck2.NextGeneration())
	}
	got, report, err := checkpoint.Recover(fs, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Generation != 2 || !bytes.Equal(got, []byte{2}) {
		t.Fatalf("recovered generation %d payload %v", report.Generation, got)
	}
}

func TestPruneKeepsNewestGenerations(t *testing.T) {
	fs := faultio.NewMemFS()
	ck := openMem(t, fs, checkpoint.WithKeep(2))
	for i := 0; i < 5; i++ {
		if _, err := ck.Save("x", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("kept %d files %v, want 2", len(names), names)
	}
}

func TestRecoverSkipsCorruptNewestGeneration(t *testing.T) {
	fs := faultio.NewMemFS()
	ck := openMem(t, fs)
	if _, err := ck.Save("x", []byte("good old state")); err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Save("x", []byte("doomed new state")); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.ReadDir(dir)
	newest := names[len(names)-1]
	if err := fs.FlipBit(filepath.Join(dir, newest), 30, 0x10); err != nil {
		t.Fatal(err)
	}
	got, report, err := checkpoint.Recover(fs, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "good old state" {
		t.Fatalf("recovered %q", got)
	}
	if len(report.Skipped) != 1 || report.Skipped[0].File != newest {
		t.Fatalf("report %+v", report)
	}
	if !strings.Contains(report.Skipped[0].Reason, "CRC") {
		t.Fatalf("skip reason %q does not mention CRC", report.Skipped[0].Reason)
	}
}

// openCounter records every file a recovery opens.
type openCounter struct {
	checkpoint.FS
	opened []string
}

func (c *openCounter) Open(name string) (checkpoint.File, error) {
	c.opened = append(c.opened, filepath.Base(name))
	return c.FS.Open(name)
}

// TestRecoverOpensOnlyIntactNewest pins the scan's stopping rule: when
// the newest of the kept generations validates, recovery reads that one
// file and no older one.
func TestRecoverOpensOnlyIntactNewest(t *testing.T) {
	mem := faultio.NewMemFS()
	ck := openMem(t, mem)
	for _, state := range []string{"oldest", "older", "newest"} {
		if _, err := ck.Save("x", []byte(state)); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := mem.ReadDir(dir)
	if len(names) != 3 {
		t.Fatalf("kept %d generations %v, want 3", len(names), names)
	}
	fs := &openCounter{FS: mem}
	got, report, err := checkpoint.Recover(fs, dir, func(string, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "newest" || len(report.Skipped) != 0 {
		t.Fatalf("recovered %q, report %+v", got, report)
	}
	if len(fs.opened) != 1 || fs.opened[0] != report.File {
		t.Fatalf("recovery opened %v, want only %s", fs.opened, report.File)
	}
}

func TestRecoverRejectsByValidator(t *testing.T) {
	fs := faultio.NewMemFS()
	ck := openMem(t, fs)
	if _, err := ck.Save("x", []byte("decodes fine")); err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Save("x", []byte("decodes badly")); err != nil {
		t.Fatal(err)
	}
	got, report, err := checkpoint.Recover(fs, dir, func(label string, payload []byte) error {
		if bytes.Contains(payload, []byte("badly")) {
			return core.Corruptf("summary invariants violated")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "decodes fine" || len(report.Skipped) != 1 {
		t.Fatalf("got %q report %+v", got, report)
	}
}

func TestRecoverEmptyDirectory(t *testing.T) {
	fs := faultio.NewMemFS()
	openMem(t, fs) // creates the directory
	_, report, err := checkpoint.Recover(fs, dir, nil)
	if !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
	if report.Loaded || len(report.Skipped) != 0 {
		t.Fatalf("report %+v", report)
	}
}

func TestRecoverIgnoresTempAndForeignFiles(t *testing.T) {
	fs := faultio.NewMemFS()
	ck := openMem(t, fs)
	if _, err := ck.Save("x", []byte("real")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ckpt-0000000000000009.ckpt.tmp", "notes.txt"} {
		f, err := fs.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("junk"))
		f.Close()
	}
	got, report, err := checkpoint.Recover(fs, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "real" || len(report.Skipped) != 0 {
		t.Fatalf("got %q report %+v", got, report)
	}
}

func TestTornTempWriteLeavesPreviousGeneration(t *testing.T) {
	mem := faultio.NewMemFS()
	ck := openMem(t, mem)
	if _, err := ck.Save("x", []byte("durable")); err != nil {
		t.Fatal(err)
	}
	// Re-route the same directory through a crashing injector: the
	// second Save tears mid-write and the process "dies".
	inj := faultio.New(mem).CrashAfterBytes(10)
	ck2 := openMem(t, inj)
	if _, err := ck2.Save("x", []byte("never lands")); !errors.Is(err, faultio.ErrCrashed) {
		t.Fatalf("Save error = %v, want ErrCrashed", err)
	}
	// Next incarnation recovers from the pristine filesystem.
	got, report, err := checkpoint.Recover(mem, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable" {
		t.Fatalf("recovered %q", got)
	}
	// The torn temp file may remain but must not have been counted.
	if report.Generation != 0 {
		t.Fatalf("recovered generation %d, want 0", report.Generation)
	}
}

func TestTransientErrorsAreRetriedWithBackoff(t *testing.T) {
	mem := faultio.NewMemFS()
	// First two writes fail with transient EIO; the third succeeds.
	inj := faultio.New(mem).FailOp(faultio.OpWrite, 1, 2)
	var slept []time.Duration
	ck := openMem(t, inj,
		checkpoint.WithRetry(checkpoint.RetryPolicy{MaxAttempts: 5, BaseDelay: 4 * time.Millisecond, MaxDelay: 6 * time.Millisecond}),
		checkpoint.WithSleep(func(d time.Duration) { slept = append(slept, d) }),
		checkpoint.WithJitterSeed(7),
	)
	if _, err := ck.Save("x", []byte("eventually")); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	for i, d := range slept {
		if d < 0 || d >= 6*time.Millisecond {
			t.Fatalf("sleep %d = %v outside the jitter cap", i, d)
		}
	}
	got, _, err := checkpoint.Recover(mem, dir, nil)
	if err != nil || string(got) != "eventually" {
		t.Fatalf("recover after retries: %q, %v", got, err)
	}
}

func TestPermanentErrorsAreNotRetried(t *testing.T) {
	mem := faultio.NewMemFS()
	inj := faultio.New(mem).CrashAfterBytes(0)
	calls := 0
	ck := openMem(t, inj, checkpoint.WithSleep(func(time.Duration) { calls++ }))
	if _, err := ck.Save("x", []byte("nope")); err == nil {
		t.Fatal("Save succeeded through a crash")
	}
	if calls != 0 {
		t.Fatalf("slept %d times on a permanent error", calls)
	}
}

func TestRecoverUnderShortReads(t *testing.T) {
	mem := faultio.NewMemFS()
	ck := openMem(t, mem)
	payload := bytes.Repeat([]byte("wide"), 500)
	if _, err := ck.Save("x", payload); err != nil {
		t.Fatal(err)
	}
	short := faultio.New(mem).ShortReads(3)
	got, _, err := checkpoint.Recover(short, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mangled by short reads")
	}
}

func TestCorruptionReasonsWrapErrCorrupt(t *testing.T) {
	fs := faultio.NewMemFS()
	ck := openMem(t, fs)
	if _, err := ck.Save("x", []byte("x")); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.ReadDir(dir)
	path := filepath.Join(dir, names[0])
	if err := fs.Truncate(path, 5); err != nil {
		t.Fatal(err)
	}
	_, _, err := checkpoint.Recover(fs, dir, nil)
	if !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("err = %v", err)
	}
}

func TestIsTransient(t *testing.T) {
	mem := faultio.NewMemFS()
	inj := faultio.New(mem).FailOp(faultio.OpSync, 1, 1)
	f, err := inj.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	serr := f.Sync()
	if !checkpoint.IsTransient(serr) {
		t.Fatalf("injected EIO not transient: %v", serr)
	}
	if checkpoint.IsTransient(faultio.ErrCrashed) {
		t.Fatal("crash classified as transient")
	}
	if checkpoint.IsTransient(nil) {
		t.Fatal("nil classified as transient")
	}
}
