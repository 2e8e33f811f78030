package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// getBody fetches url and returns the body of a 200 answer.
func getBody(client *http.Client, url string, header http.Header) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func getJSON(client *http.Client, url string, v any) error {
	body, err := getBody(client, url, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// postEmpty sends a body-less POST (flush, checkpoint) and requires 204.
func postEmpty(client *http.Client, url string) error {
	resp, err := client.Post(url, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// tabularJSON fetches the JSON tabular model of n — the byte string the
// convergence and durability checks compare.
func tabularJSON(client *http.Client, n *node) ([]byte, error) {
	return getBody(client, n.url+"/server/model?kind=tabular", http.Header{"Accept": {"application/json"}})
}

// nodeStats is the JSON stats view of one node, as far as its role has
// the sections: /shuffler/stats, /server/stats and the relay's /healthz
// forward counters.
type nodeStats struct {
	Shuffler *struct {
		Received, Forwarded, Dropped, Batches int64
		Pending                               int64 `json:"pending"`
	}
	Server *struct {
		TuplesIngested int64
		Peers          *struct {
			RelayBatches    int64 `json:"relay_batches"`
			RelayDuplicates int64 `json:"relay_duplicates"`
		} `json:"peers"`
	}
	Forward *struct {
		Batches    int64 `json:"batches"`
		Tuples     int64 `json:"tuples"`
		Duplicates int64 `json:"duplicates"`
		Dropped    int64 `json:"dropped"`
	}
}

// scrapeStats reads the stats sections n's role serves.
func scrapeStats(client *http.Client, n *node) (nodeStats, error) {
	var st nodeStats
	if n.role != "analyzer" {
		if err := getJSON(client, n.url+"/shuffler/stats", &st.Shuffler); err != nil {
			return st, err
		}
	}
	if n.role != "relay" {
		if err := getJSON(client, n.url+"/server/stats", &st.Server); err != nil {
			return st, err
		}
	} else {
		var health struct {
			Forward json.RawMessage `json:"forward"`
		}
		if err := getJSON(client, n.url+"/healthz", &health); err != nil {
			return st, err
		}
		if err := json.Unmarshal(health.Forward, &st.Forward); err != nil {
			return st, fmt.Errorf("GET %s/healthz: forward section: %w", n.url, err)
		}
	}
	return st, nil
}

// promSamples parses a Prometheus text exposition into series -> value,
// keyed by the series name including its label set.
func promSamples(text []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[line[:sp]] = v
		}
	}
	return out
}

// scrapeMetrics sums every series of /metrics over nodes: the per-role
// counters only exist on the roles that own them, so a sum is the fleet
// total.
func scrapeMetrics(client *http.Client, nodes []*node) (map[string]float64, error) {
	total := map[string]float64{}
	for _, n := range nodes {
		body, err := getBody(client, n.url+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		for k, v := range promSamples(body) {
			total[k] += v
		}
	}
	return total, nil
}

// walBytes sums the sizes of the WAL segments in n's data directory.
func walBytes(c *cluster, n *node) int64 {
	var total int64
	segs, _ := filepath.Glob(filepath.Join(c.dir, n.name, "wal-*.seg"))
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			total += fi.Size()
		}
	}
	return total
}
