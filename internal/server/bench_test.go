package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/runcache"
)

// BenchmarkServerHop times the serving layer's HTTP hop and peer hop on
// loopback, against a memory tier filled before the timer starts, so no
// iteration simulates. Each iteration is one client round trip on a
// keep-alive connection to a two-node fleet:
//
//   - "local": a cached-hit POST /v1/runs answered by the key's owner;
//   - "proxied": the same hit posted to the other member, which forwards it
//     to the owner's /v1/peer/run (two HTTP hops);
//   - "peercache": GET /v1/peer/cache/{key} served from the owner's memory
//     tier, the peer tier's fetch.
//
// phastbench reports these paths end to end only from its child processes.
func BenchmarkServerHop(b *testing.B) {
	nodes := startFleet(b, 2)
	owner, other := nodes[0], nodes[1]
	cfg := owner.srv.normalize(configOwnedBy(b, owner.srv.fleet, owner.url))
	key := runcache.Key(cfg)
	body, err := json.Marshal(RunRequest{Config: cfg})
	if err != nil {
		b.Fatal(err)
	}
	client := &http.Client{}
	if status, _ := postJSON(b, client, owner.url+"/v1/runs", RunRequest{Config: cfg}, nil); status != http.StatusOK {
		b.Fatalf("filling the owner's memory tier: status %d", status)
	}

	post := func(url string) func() (*http.Response, error) {
		return func() (*http.Response, error) {
			return client.Post(url, "application/json", bytes.NewReader(body))
		}
	}
	for _, tc := range []struct {
		name string
		hop  func() (*http.Response, error)
	}{
		{"local", post(owner.url + "/v1/runs")},
		{"proxied", post(other.url + "/v1/runs")},
		{"peercache", func() (*http.Response, error) { return client.Get(owner.url + "/v1/peer/cache/" + key) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := tc.hop()
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
		})
	}
	if sims := sumCounter(nodes, runcache.CounterRunsSimulated); sims != 1 {
		b.Errorf("fleet simulated %d runs, want 1 (every timed hop must hit the owner's memory tier)", sims)
	}
}
