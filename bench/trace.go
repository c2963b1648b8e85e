package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed interval the harness observed at a boundary it owns.
// Spans of one client operation share Op; Parent names the span that caused
// this one. Times are microseconds since the run's epoch.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  string `json:"parent,omitempty"`
	Site    int    `json:"site,omitempty"`
	Rank    int    `json:"rank,omitempty"` // probe.visible: 1 = first replica to show the write
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
}

// probeSpans turns each followed write into one probe.visible span per
// replica that showed it, children of the write's client.write span, ranked
// by arrival order.
func probeSpans(probes []*probe, epoch time.Time) []span {
	var out []span
	for _, p := range probes {
		type arrival struct {
			site  int
			delay time.Duration
		}
		var arrivals []arrival
		for i, d := range p.visible {
			if d > 0 {
				arrivals = append(arrivals, arrival{i + 1, d})
			}
		}
		sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].delay < arrivals[j].delay })
		start := p.sent.Sub(epoch).Microseconds()
		for rank, a := range arrivals {
			out = append(out, span{Name: "probe.visible", Op: p.seq, Parent: "client.write", Site: a.site, Rank: rank + 1,
				StartUs: start, EndUs: start + a.delay.Microseconds()})
		}
	}
	return out
}

// sample is one once-a-second scrape of a traced run.
type sample struct {
	AtUs     int64    `json:"at_us"`
	Counters counters `json:"counters"`
}

// sampler scrapes the cluster once a second during a traced run.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []sample // the goroutine's until done is closed
}

func startSampler(c *cluster, epoch time.Time) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer guard()
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				// A daemon may be mid-restart; a failed scrape is skipped.
				if cur, err := c.scrape(); err == nil {
					for k := range cur {
						if strings.HasPrefix(k, "prom.") {
							delete(cur, k) // hundreds of series a second; the totals keep them
						}
					}
					s.samples = append(s.samples, sample{time.Since(epoch).Microseconds(), cur})
				}
			}
		}
	}()
	return s
}

func (s *sampler) finish() []sample {
	close(s.stop)
	<-s.done
	return s.samples
}

// traceFile is what a traced run writes to bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	EndToEnd map[string]measure `json:"end_to_end"`
	PerLayer map[string]measure `json:"per_layer"`
	Samples  []sample           `json:"samples"`
	Spans    []span             `json:"spans"`
}

func writeTrace(dir string, t traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.Workload+".json")
	data, err := json.Marshal(t)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
