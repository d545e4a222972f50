package alarmdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/detector"
	"repro/internal/flow"
)

// Status tracks an alarm through the operator workflow.
type Status string

// Alarm statuses: new (from the detector), analyzed (extraction ran),
// validated (operator confirmed a security incident), rejected (operator
// marked it a false positive).
const (
	StatusNew       Status = "new"
	StatusAnalyzed  Status = "analyzed"
	StatusValidated Status = "validated"
	StatusRejected  Status = "rejected"
)

// Entry is one stored alarm with its workflow state.
type Entry struct {
	Alarm  detector.Alarm `json:"alarm"`
	Status Status         `json:"status"`
	// Note is a free-form operator comment.
	Note string `json:"note,omitempty"`
}

// DB is the alarm database. Safe for concurrent use.
type DB struct {
	mu        sync.RWMutex
	entries   map[string]*Entry
	incidents map[string]*IncidentEntry
	nextID    int
	nextIncID int
	path      string // persistence file, "" = memory only
}

// New returns an empty in-memory database.
func New() *DB {
	return &DB{
		entries:   map[string]*Entry{},
		incidents: map[string]*IncidentEntry{},
		nextID:    1,
		nextIncID: 1,
	}
}

// fileV2 is the on-disk format: a versioned envelope holding alarms and
// incidents. Version 1 files were a bare JSON array of alarm entries;
// Open still reads those.
type fileV2 struct {
	Version   int              `json:"version"`
	Alarms    []*Entry         `json:"alarms"`
	Incidents []*IncidentEntry `json:"incidents,omitempty"`
}

// fileVersion is the format Save writes.
const fileVersion = 2

// Open loads a database from a JSON file, creating an empty one when the
// file does not exist yet. Save persists back to the same path.
func Open(path string) (*DB, error) {
	db := New()
	db.path = path
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return db, nil
	}
	if err != nil {
		return nil, fmt.Errorf("alarmdb: open %s: %w", path, err)
	}
	var f fileV2
	if isLegacyArray(raw) {
		if err := json.Unmarshal(raw, &f.Alarms); err != nil {
			return nil, fmt.Errorf("alarmdb: parse %s: %w", path, err)
		}
	} else if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("alarmdb: parse %s: %w", path, err)
	}
	maxID := 0
	for _, e := range f.Alarms {
		db.entries[e.Alarm.ID] = e
		if n, err := strconv.Atoi(e.Alarm.ID); err == nil && n > maxID {
			maxID = n
		}
	}
	db.nextID = maxID + 1
	maxInc := 0
	for _, e := range f.Incidents {
		db.incidents[e.Incident.ID] = e
		if n, err := strconv.Atoi(strings.TrimPrefix(e.Incident.ID, "i")); err == nil && n > maxInc {
			maxInc = n
		}
	}
	db.nextIncID = maxInc + 1
	return db, nil
}

// isLegacyArray reports whether raw is a version-1 file (a bare JSON
// array of alarm entries).
func isLegacyArray(raw []byte) bool {
	for _, b := range raw {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		}
		return b == '['
	}
	return false
}

// Save persists the database to its file (no-op for memory-only DBs).
// The write is atomic — encode to a temp file in the same directory,
// then rename over the target — so a crash mid-save leaves the previous
// file intact instead of a truncated one.
func (db *DB) Save() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.path == "" {
		return nil
	}
	f := fileV2{
		Version:   fileVersion,
		Alarms:    db.sortedLocked(),
		Incidents: db.sortedIncidentsLocked(),
	}
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("alarmdb: encode: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(db.path), filepath.Base(db.path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("alarmdb: write %s: %w", db.path, err)
	}
	_, werr := tmp.Write(raw)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("alarmdb: write %s: %w", db.path, werr)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("alarmdb: write %s: %w", db.path, err)
	}
	if err := os.Rename(tmp.Name(), db.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("alarmdb: write %s: %w", db.path, err)
	}
	return nil
}

// Insert stores an alarm, assigns it a fresh ID (returned and also set on
// the stored copy) and marks it new.
func (db *DB) Insert(a detector.Alarm) string {
	db.mu.Lock()
	defer db.mu.Unlock()
	id := strconv.Itoa(db.nextID)
	db.nextID++
	a.ID = id
	db.entries[id] = &Entry{Alarm: a, Status: StatusNew}
	return id
}

// InsertAll stores a batch of alarms, returning their IDs in order.
func (db *DB) InsertAll(alarms []detector.Alarm) []string {
	ids := make([]string, len(alarms))
	for i, a := range alarms {
		ids[i] = db.Insert(a)
	}
	return ids
}

// ErrNotFound is returned for unknown alarm IDs.
var ErrNotFound = errors.New("alarmdb: alarm not found")

// Get returns a copy of the entry with the given ID.
func (db *DB) Get(id string) (Entry, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.entries[id]
	if !ok {
		return Entry{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return *e, nil
}

// SetStatus updates an alarm's workflow status and note.
func (db *DB) SetStatus(id string, status Status, note string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	e, ok := db.entries[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	switch status {
	case StatusNew, StatusAnalyzed, StatusValidated, StatusRejected:
	default:
		return fmt.Errorf("alarmdb: invalid status %q", status)
	}
	e.Status = status
	if note != "" {
		e.Note = note
	}
	return nil
}

// Query returns entries whose alarm interval overlaps iv, optionally
// restricted to one status ("" = all), ordered by interval start.
func (db *DB) Query(iv flow.Interval, status Status) []Entry {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Entry
	for _, e := range db.sortedLocked() {
		if !e.Alarm.Interval.Overlaps(iv) {
			continue
		}
		if status != "" && e.Status != status {
			continue
		}
		out = append(out, *e)
	}
	return out
}

// sortedLocked returns entries ordered by (interval start, numeric ID).
// Caller holds at least the read lock.
func (db *DB) sortedLocked() []*Entry {
	entries := make([]*Entry, 0, len(db.entries))
	for _, e := range db.entries {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Alarm.Interval.Start != b.Alarm.Interval.Start {
			return a.Alarm.Interval.Start < b.Alarm.Interval.Start
		}
		ai, _ := strconv.Atoi(a.Alarm.ID)
		bi, _ := strconv.Atoi(b.Alarm.ID)
		return ai < bi
	})
	return entries
}
