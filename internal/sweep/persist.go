package sweep

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// cacheFileVersion guards the on-disk format; bump it when Metrics or the
// canonical Point.Key change incompatibly (a file without a new field
// loads it as zero). Metrics is also the schema of the file's codec
// (cachecodec.go): a field added, removed or retyped must be written and
// read there too, and TestCacheCodecMatchesEncodingJSON fails until it
// is.
const cacheFileVersion = 1

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

// SaveCache writes every completed, successful evaluation in the memo as
// indented JSON, keyed by the canonical Point.Key. Keys already
// fingerprint the full model and system configuration, so stale entries
// for edited configurations can never be served — they simply stop
// matching. In-flight and errored entries are skipped: an error is cheap
// to rediscover and may be transient across binary versions. Nothing is
// written when a metric is NaN or infinite.
func (e *Engine) SaveCache(w io.Writer) error {
	e.mu.Lock()
	entries := make([]savedEntry, 0, len(e.memo))
	//lint:deterministic collected in any order, then sorted by key below
	for k, ent := range e.memo {
		select {
		case <-ent.done:
		default:
			continue // still being evaluated
		}
		if ent.err == nil {
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
// the memo win — they were computed by this process and are at least as
// fresh. Unknown versions are rejected rather than misread, and so is a
// file with an unknown field or trailing data.
func (e *Engine) LoadCache(r io.Reader) error {
	data, err := readAll(r)
	if err != nil {
		return fmt.Errorf("sweep: load cache: %w", err)
	}
	return e.loadCache(data)
}

// loadCache merges the cache file held in data into the memo.
func (e *Engine) loadCache(data []byte) error {
	in, err := decodeCache(data)
	if err != nil {
		return fmt.Errorf("sweep: load cache: %w", err)
	}
	if in.version != cacheFileVersion {
		return fmt.Errorf("sweep: cache version %d unsupported (want %d)", in.version, cacheFileVersion)
	}
	if in.costModel != costModelVersion {
		return fmt.Errorf("sweep: cache written by cost model %q, this binary is %q — delete the cache file",
			in.costModel, costModelVersion)
	}
	closed := make(chan struct{})
	close(closed)
	e.mu.Lock()
	defer e.mu.Unlock()
	// Backwards, so that of a key the file repeats the last one wins.
	for i := in.entries.n - 1; i >= 0; i-- {
		c := in.entries.at(i)
		if _, ok := e.memo[c.key]; ok {
			continue
		}
		c.ent.done = closed
		e.memo[c.key] = &c.ent
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
