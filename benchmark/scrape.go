package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSamples is one /metrics scrape: series text ("name" or
// `name{label="v",...}` exactly as exposed) → value.
type promSamples map[string]float64

// parseProm reads the Prometheus text exposition. It keeps the series
// string verbatim as the key, which is all delta arithmetic needs.
func parseProm(r io.Reader) (promSamples, error) {
	out := promSamples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value is the last space-separated field unless a timestamp
		// follows; itagd emits none. Labels may contain spaces, so cut at
		// the closing brace first.
		cut := strings.LastIndexByte(line, '}')
		sp := strings.IndexByte(line[cut+1:], ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		series := line[:cut+1+sp]
		fields := strings.Fields(line[cut+1+sp:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

// inFamily reports whether a series belongs to a metric family: the bare
// name or the name with labels, never a longer name it is a prefix of.
func inFamily(series, family string) bool {
	return series == family || strings.HasPrefix(series, family+"{")
}

// sum adds every series of a family, whatever its labels.
func (p promSamples) sum(family string) float64 {
	total := 0.0
	for series, v := range p {
		if inFamily(series, family) {
			total += v
		}
	}
	return total
}

// max is the largest sample of a family (0 when absent).
func (p promSamples) max(family string) float64 {
	m := 0.0
	for series, v := range p {
		if inFamily(series, family) && v > m {
			m = v
		}
	}
	return m
}

// route returns family{route="<route>"}.
func (p promSamples) route(family, route string) float64 {
	return p[fmt.Sprintf("%s{route=%q}", family, route)]
}

// minus returns p - q per series; counters missing from q count from zero.
func (p promSamples) minus(q promSamples) promSamples {
	out := make(promSamples, len(p))
	for k, v := range p {
		out[k] = v - q[k]
	}
	return out
}

// plus accumulates q into p (summing the nodes of a cluster).
func (p promSamples) plus(q promSamples) {
	for k, v := range q {
		p[k] += v
	}
}

// memStats is the part of /debug/vars the harness uses.
type memStats struct {
	TotalAlloc float64 // bytes allocated since start
	Mallocs    float64 // objects allocated since start
	NumGC      float64
}

func parseExpvar(r io.Reader) (memStats, error) {
	var doc struct {
		Memstats *struct {
			TotalAlloc float64
			Mallocs    float64
			NumGC      float64
		} `json:"memstats"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return memStats{}, fmt.Errorf("parse /debug/vars: %w", err)
	}
	if doc.Memstats == nil {
		return memStats{}, fmt.Errorf("/debug/vars has no memstats")
	}
	return memStats{TotalAlloc: doc.Memstats.TotalAlloc, Mallocs: doc.Memstats.Mallocs, NumGC: doc.Memstats.NumGC}, nil
}

// snapshot is everything read from the itagd children at one instant,
// summed over the nodes.
type snapshot struct {
	prom  promSamples
	mem   memStats
	cpuMS float64
	hwmKB float64
}

func (s *stack) snapshot(ctx context.Context, hc *http.Client) (snapshot, error) {
	snap := snapshot{prom: promSamples{}}
	for _, n := range s.nodes {
		if n.proc == nil {
			continue
		}
		body, err := httpGet(ctx, hc, n.debug+"/metrics")
		if err != nil {
			return snap, err
		}
		ps, err := parseProm(strings.NewReader(body))
		if err != nil {
			return snap, err
		}
		snap.prom.plus(ps)
		body, err = httpGet(ctx, hc, n.debug+"/debug/vars")
		if err != nil {
			return snap, err
		}
		ms, err := parseExpvar(strings.NewReader(body))
		if err != nil {
			return snap, err
		}
		snap.mem.TotalAlloc += ms.TotalAlloc
		snap.mem.Mallocs += ms.Mallocs
		snap.mem.NumGC += ms.NumGC
		cpu, hwm, err := procUsage(n.proc.pid())
		if err != nil {
			return snap, err
		}
		snap.cpuMS += cpu
		snap.hwmKB += hwm
	}
	return snap, nil
}

func httpGet(ctx context.Context, hc *http.Client, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("read %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(raw), nil
}
