package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Scrape is one Prometheus text-format exposition: sample name with its
// label set ("name{a=\"x\",b=\"y\"}", labels as exported) → value.
type Scrape map[string]float64

// parseScrape reads the Prometheus text format, skipping comments and
// malformed lines.
func parseScrape(r io.Reader) (Scrape, error) {
	out := Scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces.
		end := strings.LastIndexByte(line, '}')
		sp := strings.IndexByte(line[end+1:], ' ')
		if sp < 0 {
			continue
		}
		key := line[:end+1+sp]
		fields := strings.Fields(line[end+1+sp:])
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		out[key] = v
	}
	return out, sc.Err()
}

// Delta returns after − before for every sample of after (a sample
// missing from before counts from zero).
func (after Scrape) Delta(before Scrape) Scrape {
	out := make(Scrape, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// Sum adds every sample named name whose labels include all of the
// given label="value" pairs.
func (s Scrape) Sum(name string, labels ...string) float64 {
	t := 0.0
	for k, v := range s {
		base, lab := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			base, lab = k[:i], k[i:]
		}
		if base != name {
			continue
		}
		ok := true
		for _, want := range labels {
			if !strings.Contains(lab, want) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// phaseSeconds returns the summed pqed_phase_seconds of one phase
// (queue, build, sample, serialize) and route (estimate, delta; ""
// for every route).
func (s Scrape) phaseSeconds(phase, route string) float64 {
	labels := []string{fmt.Sprintf("phase=%q", phase)}
	if route != "" {
		labels = append(labels, fmt.Sprintf("route=%q", route))
	}
	return s.Sum("pqed_phase_seconds_sum", labels...)
}

func scrapeURL(client *http.Client, url string) (Scrape, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	return parseScrape(resp.Body)
}
