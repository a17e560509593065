// SQ011 — unlock-path soundness: what is locked gets unlocked on every
// path out.
package main

// checkSQ011 reports the leaked-lock findings of the shared lock
// dataflow (locks.go): a Lock/RLock with some function exit it can
// reach while still held — no defer, no post-dominating Unlock. The
// finding anchors at the acquire site (the fix belongs there: defer the
// unlock), deduplicated across the exits that leak it.
func (l *linter) checkSQ011() {
	for _, p := range l.pkgs {
		for _, f := range l.lockAnalysis(p).sq011 {
			l.report(f.pos, "SQ011", f.msg)
		}
	}
}
