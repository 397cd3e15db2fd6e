package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/rader"
)

//go:embed expect.json
var expectJSON []byte

// expectations is the verdict oracle behind error_frac for the live and
// sweep workloads (serve checks against local replays instead).
type expectations struct {
	Live  map[string]map[string]int `json:"live"`
	Sweep map[string]sweepExpect    `json:"sweep"`
	// seen pins each seed-dependent count to its first observation, so a
	// run whose passes disagree is caught.
	seen map[string]int
}

type sweepExpect struct {
	Specs     int `json:"specs"`
	Races     int `json:"races"`
	ViewReads int `json:"viewReads"`
}

func loadExpectations() (*expectations, error) { return parseExpectations(expectJSON) }

func parseExpectations(data []byte) (*expectations, error) {
	e := &expectations{seen: make(map[string]int)}
	if err := json.Unmarshal(data, e); err != nil {
		return nil, fmt.Errorf("expect.json: %w", err)
	}
	return e, nil
}

// checkLive compares one live detector run's distinct-race count with the
// expectation for (app, column).
func (e *expectations) checkLive(app, col string, distinct int) error {
	want, ok := e.Live[app][col]
	switch {
	case !ok:
		return fmt.Errorf("no expectation for %s under %s", app, col)
	case want >= 0 && distinct != want:
		return fmt.Errorf("%s under %s: %d distinct races, expected %d", app, col, distinct, want)
	case want < 0 && distinct == 0:
		return fmt.Errorf("%s under %s: no race, expected racy", app, col)
	case want < 0:
		key := app + "|" + col
		if prev, ok := e.seen[key]; ok && prev != distinct {
			return fmt.Errorf("%s under %s: %d distinct races, an earlier pass saw %d", app, col, distinct, prev)
		}
		e.seen[key] = distinct
	}
	return nil
}

// checkSweep compares a finished sweep with its expectation.
func (e *expectations) checkSweep(name string, cr *rader.CoverageResult) error {
	want, ok := e.Sweep[name]
	switch {
	case !ok:
		return fmt.Errorf("no expectation for sweep %s", name)
	case !cr.Complete():
		return fmt.Errorf("sweep %s: %d failed units", name, len(cr.Failures))
	case cr.SpecsRun != want.Specs || len(cr.Races) != want.Races || cr.ViewReads.Distinct() != want.ViewReads:
		return fmt.Errorf("sweep %s: %d specs, %d races, %d view-read races; expected %d, %d, %d",
			name, cr.SpecsRun, len(cr.Races), cr.ViewReads.Distinct(), want.Specs, want.Races, want.ViewReads)
	}
	return nil
}
