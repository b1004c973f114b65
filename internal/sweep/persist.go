package sweep

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"unicode/utf8"
)

// cacheFileVersion guards the on-disk format (cachecodec.go); bump it
// when the layout, Metrics or the canonical Point.Key change. A field
// added to Metrics is stored once columns lists it, and
// TestCacheFileRoundTrip fails until it does.
const cacheFileVersion = "2"

// costModelVersion stamps the predictors behind the cached numbers. The
// Point.Key fingerprints configurations, not the cost model itself, so a
// snapshot written by a binary with different kernel/roofline/simulator
// math would silently serve stale metrics (and break the engine==serial
// guarantee) if it were accepted. Bump on ANY change that can alter a
// predictor's output for an unchanged Point — the pr8 bump covers the
// prefix-cache and host-KV-tier serving path (every Point.Key grew
// prefix-length, host-capacity and swap-bandwidth segments, and paged
// candidates are costed through a prefix/tier-aware admission policy).
// The pr10 bump covers the temporal-workload generation seam (every
// Point.Key grew schedule, session-turn and think-time segments, and the
// paged policy's prefix entries grow in place for session cohorts).
// The drawn-stream-geometry bump: a serving simulation is sized from the
// stream it serves, which moves every heavy-tailed candidate's metrics.
const costModelVersion = "drawn-stream-geometry"

// SaveCache writes every successful evaluation in the memo, one line per
// entry keyed by the canonical Point.Key, in key order. The memo holds
// finished evaluations only, so a Run that overlaps the save adds nothing
// until it ends. Keys already fingerprint the full model and system
// configuration, so stale entries for edited configurations can never be
// served — they simply stop matching. Errored entries are skipped: an
// error is cheap to rediscover and may be transient across binary
// versions. So is a key that is not valid UTF-8: JSON cannot hold it, and
// the key it would be read back as could only match another point.
// Nothing is written when a metric is NaN or infinite.
func (e *Engine) SaveCache(w io.Writer) error {
	e.mu.Lock()
	entries := make([]savedEntry, 0, len(e.memo))
	//lint:deterministic collected in any order, then sorted by key below
	for k, ent := range e.memo {
		if ent.err == nil && utf8.ValidString(k) {
			entries = append(entries, savedEntry{k, &ent.m})
		}
	}
	e.mu.Unlock()

	slices.SortFunc(entries, func(a, b savedEntry) int { return strings.Compare(a.key, b.key) })
	b, err := appendCache(make([]byte, 0, cacheSize(entries)), entries)
	if err == nil {
		_, err = w.Write(b)
	}
	if err != nil {
		return fmt.Errorf("sweep: save cache: %w", err)
	}
	return nil
}

// LoadCache merges a SaveCache snapshot into the memo. Entries already in
// the memo win, as they do when a Run records its evaluations: they were
// computed by this process and are at least as fresh. A file of another
// version or cost model is rejected rather than misread, and so is one
// that departs from the layout SaveCache writes.
func (e *Engine) LoadCache(r io.Reader) error {
	data, err := readAll(r)
	if err != nil {
		return fmt.Errorf("sweep: load cache: %w", err)
	}
	return e.loadCache(data)
}

// loadCache merges the cache file held in data into the memo, all of it
// or, when data is not a cache file of this binary, none of it.
func (e *Engine) loadCache(data []byte) error {
	in, err := decodeCache(data)
	if err != nil {
		return fmt.Errorf("sweep: load cache: %w; delete the cache file", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range in.n {
		c := in.at(i)
		if _, ok := e.memo[c.key]; !ok {
			e.memo[c.key] = &c.ent
		}
	}
	return nil
}

// LoadCacheFile loads a cache snapshot from disk; a missing file is not an
// error (first run of a cached workflow).
func (e *Engine) LoadCacheFile(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("sweep: load cache: %w", err)
	}
	return e.loadCache(data)
}

// SaveCacheFile atomically writes the cache snapshot to disk (temp file +
// rename, so a crashed run never leaves a truncated cache). CreateTemp
// makes its file mode 0600, which the rename would otherwise freeze in
// place — unreadable to other users no matter the umask, breaking shared
// and CI cache reuse — so the temp file is chmodded to an umask-honoring
// 0644 before the rename, the mode a plain create would have produced.
func (e *Engine) SaveCacheFile(path string) error {
	tmp, err := os.CreateTemp(dirOf(path), ".sweep-cache-*")
	if err != nil {
		return fmt.Errorf("sweep: save cache: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := e.SaveCache(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(0o644 &^ processUmask); err != nil {
		tmp.Close()
		return fmt.Errorf("sweep: save cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("sweep: save cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("sweep: save cache: %w", err)
	}
	return nil
}

// dirOf returns the directory of path for CreateTemp. A separator-free
// path must map to "." (the rename target's directory), not "" — CreateTemp
// treats "" as os.TempDir(), which can sit on a different filesystem and
// make the final rename fail with EXDEV (and non-atomic even when it
// works).
func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if os.IsPathSeparator(path[i]) {
			return path[:i+1]
		}
	}
	return "."
}
