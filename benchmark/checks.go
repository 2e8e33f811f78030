package main

import (
	"bytes"
	"fmt"
	"net/http"
)

// The checkers below read the nodes' own stats routes and compare them
// with what the generator knows it sent. Each returns the list of
// violated invariants (empty = pass); a run with any violation exits
// non-zero. They must be called on a quiescent system: forwarding is
// synchronous on the request path, so "every response received" is
// quiescent for ingest.

// checkConservation verifies report mass end to end. acked[i] is the
// number of reports ingest node i acknowledged over its whole life.
//
//   - every acknowledged report was received by that node's shuffler, and
//     nothing else was (acked == received);
//   - the shuffler lost nothing: received == forwarded + dropped + pending;
//   - everything forwarded reached an analyzer exactly once: on a combined
//     node delivered == forwarded; on a fleet the relays dropped no batch,
//     the analyzers' delivered tuples equal the relays' forwarded tuples,
//     and the analyzers applied exactly the batches the relays had
//     acknowledged as applied (a replayed batch shows up as a duplicate on
//     both sides, never as a second apply).
func checkConservation(client *http.Client, ingest, models []*node, acked []int64) []string {
	var bad []string
	var forwarded, fwdTuples, fwdApplied, delivered, relayBatches int64
	relays := 0
	for i, n := range ingest {
		st, err := scrapeStats(client, n)
		if err != nil {
			return append(bad, "conservation: "+err.Error())
		}
		sh := st.Shuffler
		if sh.Received != acked[i] {
			bad = append(bad, fmt.Sprintf("conservation: %s acknowledged %d reports but its shuffler received %d", n.name, acked[i], sh.Received))
		}
		if sh.Received != sh.Forwarded+sh.Dropped+sh.Pending {
			bad = append(bad, fmt.Sprintf("conservation: %s received %d != forwarded %d + dropped %d + pending %d", n.name, sh.Received, sh.Forwarded, sh.Dropped, sh.Pending))
		}
		forwarded += sh.Forwarded
		if st.Forward != nil {
			relays++
			if st.Forward.Dropped != 0 {
				bad = append(bad, fmt.Sprintf("conservation: %s abandoned %d forwarded batches", n.name, st.Forward.Dropped))
			}
			fwdTuples += st.Forward.Tuples
			fwdApplied += st.Forward.Batches - st.Forward.Duplicates
		}
	}
	for _, n := range models {
		st, err := scrapeStats(client, n)
		if err != nil {
			return append(bad, "conservation: "+err.Error())
		}
		delivered += st.Server.TuplesIngested
		if st.Server.Peers != nil {
			relayBatches += st.Server.Peers.RelayBatches
		}
	}
	if relays > 0 {
		if fwdTuples != forwarded {
			bad = append(bad, fmt.Sprintf("conservation: relays' shufflers forwarded %d tuples but their forwarders sent %d", forwarded, fwdTuples))
		}
		if relayBatches != fwdApplied {
			bad = append(bad, fmt.Sprintf("exactly-once: analyzers applied %d relay batches, relays had %d acknowledged as applied", relayBatches, fwdApplied))
		}
	}
	if delivered != forwarded {
		bad = append(bad, fmt.Sprintf("conservation: shufflers forwarded %d tuples but analyzers delivered %d", forwarded, delivered))
	}
	return bad
}

// checkCrowd fetches n's tabular model and verifies the crowd-blending
// guarantee at the output (see checkTabular). The generator applies the
// same check to every model it fetches under load; this is the entry
// point for a quiescent node.
func checkCrowd(client *http.Client, n *node, w workload) []string {
	body, err := tabularJSON(client, n)
	if err != nil {
		return []string{"crowd: " + err.Error()}
	}
	tab, _, err := decodeModelBody(body, fetchShape{json: true})
	if err != nil {
		return []string{fmt.Sprintf("crowd: %s serves an undecodable tabular model: %v", n.name, err)}
	}
	if msg := checkTabular(tab, w); msg != "" {
		return []string{fmt.Sprintf("crowd: %s: %s", n.name, msg)}
	}
	return nil
}

// checkConvergence requires every model node to serve byte-identical
// tabular JSON: after the relays were flushed and one more sync interval
// passed, each analyzer holds its own shards plus every sibling's export.
func checkConvergence(client *http.Client, models []*node) []string {
	var first []byte
	for i, n := range models {
		body, err := tabularJSON(client, n)
		if err != nil {
			return []string{"convergence: " + err.Error()}
		}
		if i == 0 {
			first = body
		} else if !bytes.Equal(first, body) {
			return []string{fmt.Sprintf("convergence: %s and %s serve different tabular models", models[0].name, n.name)}
		}
	}
	return nil
}

// durableState is what must survive a kill -9 of an ingest node: how many
// reports it acknowledged and the model the fleet serves from them.
type durableState struct {
	received int64
	model    []byte // tabular JSON of the model node behind the killed node
}

func captureDurable(client *http.Client, ingest, model *node) (durableState, error) {
	st, err := scrapeStats(client, ingest)
	if err != nil {
		return durableState{}, err
	}
	body, err := tabularJSON(client, model)
	return durableState{st.Shuffler.Received, body}, err
}

// checkDurability compares the state captured before the kill with the
// state after the restart: every acknowledged report is still counted and
// the served model is the same bytes — nothing lost, nothing applied twice.
func checkDurability(client *http.Client, ingest, model *node, acked int64, before durableState) []string {
	after, err := captureDurable(client, ingest, model)
	if err != nil {
		return []string{"durability: " + err.Error()}
	}
	var bad []string
	if after.received != acked {
		bad = append(bad, fmt.Sprintf("durability: %s acknowledged %d reports, %d survived the restart", ingest.name, acked, after.received))
	}
	if !bytes.Equal(before.model, after.model) {
		bad = append(bad, fmt.Sprintf("durability: %s serves a different tabular model after %s restarted", model.name, ingest.name))
	}
	return bad
}
