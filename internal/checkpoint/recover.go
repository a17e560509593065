package checkpoint

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// ErrNoCheckpoint is returned by Recover when the directory holds no
// intact checkpoint: either it is empty (a fresh deployment) or every
// generation failed validation (the report says which and why).
var ErrNoCheckpoint = errors.New("checkpoint: no usable checkpoint found")

// Skipped records one rejected generation during recovery.
type Skipped struct {
	// File is the base name of the rejected file.
	File string
	// Generation is the number parsed from the file name.
	Generation uint64
	// Reason is the validation failure, as text: recovery keeps going,
	// so the error chain itself is not preserved.
	Reason string
}

// RecoveryReport describes what recovery found, loaded and rejected.
// It is diagnostic output: a non-empty Skipped list means data was lost
// to corruption or a crash and the operator should know.
type RecoveryReport struct {
	// Generation and File identify the loaded checkpoint; meaningful
	// only when Loaded is true.
	Generation uint64
	File       string
	// Label is the loaded frame's header label.
	Label string
	// Loaded reports whether any generation validated.
	Loaded bool
	// Skipped lists rejected generations, newest first — the order
	// they were tried in.
	Skipped []Skipped
	// Candidates carries per-candidate decode timing when the caller
	// supplied a CandidateObserver that measures it (this package never
	// reads the clock itself — the SQ001 contract); nil otherwise.
	Candidates []CandidateTiming
}

// CandidateTiming is one candidate's decode cost as measured by the
// caller's observer; see RecoverObserved.
type CandidateTiming struct {
	// File and Generation identify the candidate.
	File       string
	Generation uint64
	// Decode is the wall time the caller measured around the Validator
	// call (the frame read and CRC verification happen before it).
	Decode time.Duration
	// Loaded reports whether this candidate became the recovery target.
	Loaded bool
}

// A CandidateObserver brackets each candidate validation during
// Recover: obs(file, gen) runs just before the Validator is invoked on
// that candidate's payload and the returned done just after it
// returns. Callers that want per-candidate decode timing in the report
// measure inside the observer and fill RecoveryReport.Candidates —
// timing stays caller-injected so this package never reads the clock.
type CandidateObserver func(file string, gen uint64) (done func())

// String renders the report for logs.
func (r *RecoveryReport) String() string {
	s := "checkpoint: no generation loaded"
	if r.Loaded {
		s = fmt.Sprintf("checkpoint: loaded generation %d from %s (label %q)", r.Generation, r.File, r.Label)
	}
	for _, sk := range r.Skipped {
		s += fmt.Sprintf("; skipped %s: %s", sk.File, sk.Reason)
	}
	return s
}

// Validator checks a candidate payload beyond its CRCs — typically by
// decoding it into a summary and running the summary's deep invariant
// checks. A non-nil error rejects the candidate and recovery moves on
// to the next older generation. A nil Validator accepts any payload
// whose frame is intact.
type Validator func(label string, payload []byte) error

// Recover scans dir newest-first and returns the payload of the first
// generation that passes every check: readable, well-formed header,
// magic, version, both CRCs, generation number matching the file name,
// and the caller's Validator. Rejected generations are recorded in the
// report with their reasons; an error is returned only when no
// generation survives (ErrNoCheckpoint wrapped with context).
func Recover(fs FS, dir string, validate Validator) ([]byte, *RecoveryReport, error) {
	return RecoverObserved(fs, dir, validate, nil)
}

// RecoverObserved is Recover with a per-candidate observer bracketing
// each Validator call (nil behaves exactly like Recover). Candidates are
// read, CRC-checked and validated one at a time, newest first, and the
// scan stops at the first that passes: when the newest generation is
// intact, no older file is opened.
func RecoverObserved(fs FS, dir string, validate Validator, obs CandidateObserver) ([]byte, *RecoveryReport, error) {
	report := &RecoveryReport{}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, report, fmt.Errorf("checkpoint: %w", err)
	}
	type candidate struct {
		name string
		gen  uint64
	}
	var cands []candidate
	for _, name := range names {
		if gen, ok := parseFileName(name); ok {
			cands = append(cands, candidate{name, gen})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].gen > cands[j].gen })

	for _, cand := range cands {
		payload, label, err := readGen(fs, filepath.Join(dir, cand.name), cand.gen)
		if err == nil && validate != nil {
			done := func() {}
			if obs != nil {
				if d := obs(cand.name, cand.gen); d != nil {
					done = d
				}
			}
			err = validate(label, payload)
			done()
		}
		if err != nil {
			report.Skipped = append(report.Skipped, Skipped{
				File: cand.name, Generation: cand.gen, Reason: err.Error(),
			})
			continue
		}
		report.Loaded = true
		report.Generation = cand.gen
		report.File = cand.name
		report.Label = label
		return payload, report, nil
	}
	return nil, report, fmt.Errorf("%w in %s (%d file(s) rejected)", ErrNoCheckpoint, dir, len(report.Skipped))
}

// readGen reads and frame-validates one published generation.
func readGen(fs FS, path string, wantGen uint64) (payload []byte, label string, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, "", err
	}
	data, err := readAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, "", err
	}
	gen, label, payload, err := parseFrame(data)
	if err != nil {
		return nil, "", err
	}
	if gen != wantGen {
		return nil, "", fmt.Errorf("checkpoint: header generation %d does not match file name generation %d", gen, wantGen)
	}
	return payload, label, nil
}
