package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// counters is one scrape of everything the benchmark reads from outside a
// daemon, flattened to name -> value: "node.<field>" from STATSJSON,
// "wire.<field>" from WIRE, "prom.<series>" from /metrics, and "proc.<x>"
// from /proc/<pid>. Summed over daemons and subtracted before/after, it
// gives the per-layer work counts of a run.
type counters map[string]float64

// Two readings are high-water marks, not running totals: a before/after
// difference keeps the later reading. The mail queueing delay is a maximum
// over daemons too; peak resident sets add up over daemons.
const (
	keyMailMaxQueued = "node.mail_max_queued_nanos"
	keyVmHWM         = "proc.vm_hwm_kb"
)

func isHighWater(name string) bool { return name == keyMailMaxQueued || name == keyVmHWM }

// add accumulates another daemon's scrape o into c.
func (c counters) add(o counters) {
	for k, v := range o {
		if k == keyMailMaxQueued {
			c[k] = math.Max(c[k], v)
		} else {
			c[k] += v
		}
	}
}

// addIncarnation accumulates a later incarnation of the same daemon: as add,
// but one daemon's peak resident set is the largest of its incarnations'.
func (c counters) addIncarnation(o counters) {
	hwm := math.Max(c[keyVmHWM], o[keyVmHWM])
	c.add(o)
	c[keyVmHWM] = hwm
}

// minus returns c - before, for the work done between two scrapes.
func (c counters) minus(before counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		if isHighWater(k) {
			d[k] = v
		} else {
			d[k] = v - before[k]
		}
	}
	return d
}

// sumPrefix adds up every series whose name starts with prefix (all label
// sets of one Prometheus metric).
func (c counters) sumPrefix(prefix string) float64 {
	var sum float64
	for k, v := range c {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// parseProm reads Prometheus text exposition into into, one entry per
// sample line under "prom.<name>{labels}", and returns the series count.
func parseProm(r io.Reader, into counters) (series int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return series, fmt.Errorf("metrics line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return series, fmt.Errorf("metrics line %q: %w", line, err)
		}
		into["prom."+line[:cut]] = v
		series++
	}
	return series, sc.Err()
}

// histQuantile estimates quantile q (0..1) of a Prometheus histogram from
// the per-bucket cumulative counts in c, for the series whose name is
// "prom.<metric>_bucket{<labels>,le=...}". It returns the upper bound of
// the bucket holding the quantile, NaN when the histogram is empty.
func (c counters) histQuantile(metric, labels string, q float64) float64 {
	type bucket struct {
		le    float64
		count float64
	}
	var buckets []bucket
	prefix := "prom." + metric + "_bucket{"
	for k, v := range c {
		if !strings.HasPrefix(k, prefix) || !strings.Contains(k, labels) {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		bound := k[i+4:]
		bound = bound[:strings.IndexByte(bound, '"')]
		le, err := strconv.ParseFloat(bound, 64) // "+Inf" parses
		if err != nil {
			continue
		}
		buckets = append(buckets, bucket{le, v})
	}
	if len(buckets) == 0 {
		return math.NaN()
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].count
	if total <= 0 {
		return math.NaN()
	}
	for _, b := range buckets {
		if b.count >= q*total {
			return b.le
		}
	}
	return math.Inf(1)
}

// Linux reports process times in clock ticks of 1/100 s on every
// architecture Go supports (USER_HZ).
const clockTicksPerSecond = 100

// parseProcStat extracts utime+stime, in seconds, from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(stat string) (cpuSeconds float64, err error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %.60q", stat)
	}
	fields := strings.Fields(stat[end+1:]) // fields[0] is field 3 (state)
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want >= 13", len(fields))
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(fields[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", fields[11], fields[12])
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// parseProcKV reads the "Key: value [unit]" lines of /proc/<pid>/status or
// /proc/<pid>/io and returns the integer values of the wanted keys.
func parseProcKV(text string, want ...string) (map[string]float64, error) {
	out := make(map[string]float64, len(want))
	for _, line := range strings.Split(text, "\n") {
		key, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		for _, w := range want {
			if key != w {
				continue
			}
			f := strings.Fields(rest)
			if len(f) == 0 {
				return nil, fmt.Errorf("proc: %s has no value", key)
			}
			v, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return nil, fmt.Errorf("proc: %s: %w", key, err)
			}
			out[key] = v
		}
	}
	for _, w := range want {
		if _, ok := out[w]; !ok {
			return nil, fmt.Errorf("proc: key %s not found", w)
		}
	}
	return out, nil
}

// readSchedstat returns the first field of a /proc/<pid>/task/<tid>/schedstat
// file: the nanoseconds the thread has spent on a CPU, as the scheduler
// measured them.
func readSchedstat(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0, fmt.Errorf("%s: empty", path)
	}
	return strconv.ParseFloat(fields[0], 64)
}

// scrapeProc reads one process's CPU time, I/O byte counts, peak resident
// set and context switches from /proc into into.
//
// CPU time is the sum of the threads' schedstat run times where the kernel
// keeps them, and utime+stime of /proc/<pid>/stat otherwise. The latter is
// sampled: a process is charged a whole 10 ms tick if it is running when the
// tick fires. Daemons that wake for a fraction of a millisecond on 20 ms
// timers alias with that tick, and the charge for identical work moved by
// +-25 % between boots; the scheduler's own nanosecond count does not.
func scrapeProc(pid int, into counters) error {
	dir := "/proc/" + strconv.Itoa(pid) + "/"
	stat, err := os.ReadFile(dir + "stat")
	if err != nil {
		return err
	}
	cpu, err := parseProcStat(string(stat))
	if err != nil {
		return err
	}
	into["proc.cpu_s"] = cpu

	status, err := os.ReadFile(dir + "status")
	if err != nil {
		return err
	}
	st, err := parseProcKV(string(status), "VmHWM")
	if err != nil {
		return err
	}
	into[keyVmHWM] = st["VmHWM"]

	// Context switches are kept per thread; threads that have exited take
	// their counts with them, which a Go runtime's few do rarely.
	tasks, err := os.ReadDir(dir + "task")
	if err != nil {
		return err
	}
	var switches, onCPU float64
	exact := true
	for _, task := range tasks {
		tdir := dir + "task/" + task.Name() + "/"
		status, err := os.ReadFile(tdir + "status")
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		if sw, err := parseProcKV(string(status), "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"); err == nil {
			switches += sw["voluntary_ctxt_switches"] + sw["nonvoluntary_ctxt_switches"]
		}
		ns, err := readSchedstat(tdir + "schedstat")
		if err != nil {
			exact = false
		}
		onCPU += ns
	}
	into["proc.ctx_switches"] = switches
	if exact {
		into["proc.cpu_s"] = onCPU / 1e9
	}

	io, err := os.ReadFile(dir + "io")
	if err != nil {
		return err
	}
	iov, err := parseProcKV(string(io), "rchar", "wchar")
	if err != nil {
		return err
	}
	into["proc.io_rchar"] = iov["rchar"]
	into["proc.io_wchar"] = iov["wchar"]
	return nil
}
