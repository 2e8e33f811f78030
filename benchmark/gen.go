package main

import (
	"fmt"

	"p2b/internal/rng"
	"p2b/internal/transport"
)

// fetchShape is what one model GET asks for.
type fetchShape struct {
	linucb      bool // kind=linucb instead of tabular
	json        bool // JSON instead of the P2BM binary encoding
	conditional bool // send the worker's last ETag for this representation
}

// observerFetch is the single shape of the observer stream on the ingest
// workloads: a device revalidating the binary tabular model.
var observerFetch = fetchShape{conditional: true}

// inputs is everything a run sends, generated from the seed before any
// node is started. The nodes only ever see these bytes.
type inputs struct {
	bodies [][]byte            // distinctBody P2B1 streams of w.bodyReports frames each
	tuples [][]transport.Tuple // the tuples inside each body, for the stage ledger
	probes [probeCodes][]byte  // one probe body per reserved code: 2*threshold identical tuples
	// fetches is the cycled per-operation plan of the device-fleet mix (70%
	// tabular / 30% linucb, 90% binary / 10% JSON, half conditional); on the
	// ingest workloads it holds the one observer shape.
	fetches []fetchShape
}

// generate derives a workload's inputs from seed: device ids from a pool of
// devicePool identities, background codes Zipf(1.1) over the unreserved
// code space (so crowd-blending really drops the rare ones), actions
// uniform, rewards Bernoulli(0.5).
func generate(w workload, seed uint64) *inputs {
	root := rng.New(seed).Split(w.name)
	in := &inputs{}
	r := root.Split("bodies")
	zipf := rng.NewZipf(r, 1.1, w.probeBase())
	sentAt := int64(1_700_000_000_000_000_000) // a fixed epoch: bodies must not depend on the wall clock
	for b := 0; b < distinctBody; b++ {
		buf := transport.AppendMagic(make([]byte, 0, w.bodyReports*56))
		ts := make([]transport.Tuple, 0, w.bodyReports)
		for i := 0; i < w.bodyReports; i++ {
			dev := r.IntN(devicePool)
			sentAt += int64(1 + r.IntN(1_000_000))
			reward := 0.0
			if r.Bernoulli(0.5) {
				reward = 1
			}
			e := transport.Envelope{
				Meta: transport.Metadata{
					DeviceID: fmt.Sprintf("dev-%05d", dev),
					Addr:     fmt.Sprintf("10.%d.%d.%d:%d", dev>>16&255, dev>>8&255, dev&255, 20000+dev%40000),
					SentAt:   sentAt,
				},
				Tuple: transport.Tuple{Code: zipf.Draw(), Action: r.IntN(w.arms), Reward: reward},
			}
			buf = e.AppendFrame(buf)
			ts = append(ts, e.Tuple)
		}
		in.bodies = append(in.bodies, buf)
		in.tuples = append(in.tuples, ts)
	}
	for c := range in.probes {
		buf := transport.AppendMagic(nil)
		e := transport.Envelope{
			Meta:  transport.Metadata{DeviceID: fmt.Sprintf("probe-%02d", c)},
			Tuple: transport.Tuple{Code: w.probeBase() + c, Action: 0, Reward: 1},
		}
		for i := 0; i < 2*threshold; i++ {
			buf = e.AppendFrame(buf)
		}
		in.probes[c] = buf
	}
	if !w.deviceMix {
		in.fetches = []fetchShape{observerFetch}
		return in
	}
	fr := root.Split("fetches")
	for i := 0; i < 4096; i++ {
		in.fetches = append(in.fetches, fetchShape{
			linucb:      fr.Bernoulli(0.3),
			json:        fr.Bernoulli(0.1),
			conditional: fr.Bernoulli(0.5),
		})
	}
	return in
}
