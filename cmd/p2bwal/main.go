// Command p2bwal inspects and replays a p2bnode data directory (the WAL
// segments and checkpoint written by internal/persist). All modes read the
// directory strictly read-only — no truncation, no appends — so inspecting
// a data dir can never corrupt it, even while a node is running against it
// (though a live dir is a moving target; freeze a copy for exact work).
//
// Modes:
//
//	p2bwal -dir DATA verify
//	    Scan the checkpoint and every segment, validating magic, CRCs and
//	    sequence continuity. Exits non-zero on corruption. A torn tail is
//	    reported (node recovery would truncate it).
//
//	p2bwal -dir DATA dump
//	    Print the checkpoint position and every record: sequence number,
//	    type, and tuple count.
//
//	p2bwal -dir DATA replay -node URL [-peer-token TOKEN]
//	    Re-submit the logged input stream, in order, against a running
//	    p2bnode: tuple records as binary batch POSTs to /shuffler/reports,
//	    flush markers as POST /shuffler/flush, and relay-delivered records
//	    to /peer/ingest at their original (origin, epoch, seq) position —
//	    the target's duplicate guard makes re-running a replay idempotent.
//	    Run the source node with
//	    -wal-retain so the full history is present (replay refuses a
//	    pruned log); a fresh node fed this stream reproduces the original
//	    node's model bit-for-bit, which is what the crash-recovery CI job
//	    asserts.
//
// Replay mutates the target node; point it at a clean one.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"p2b/internal/persist"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

func main() {
	var (
		dir       = flag.String("dir", "", "p2bnode data directory (required)")
		node      = flag.String("node", "", "base URL of the target p2bnode (replay mode)")
		peerToken = flag.String("peer-token", "", "bearer token for replaying relay-delivered records to the target's /peer/ingest")
	)
	flag.Parse()
	mode := flag.Arg(0)
	if *dir == "" || mode == "" {
		fmt.Fprintln(os.Stderr, "usage: p2bwal -dir DATA [-node URL] verify|dump|replay")
		os.Exit(2)
	}

	ckpt, err := persist.LoadCheckpoint(*dir)
	if err != nil {
		fatal(err)
	}

	switch mode {
	case "verify":
		if ckpt != nil {
			fmt.Printf("checkpoint: ok, covers seq %d", ckpt.WALSeq)
			if ckpt.Relay != nil {
				fmt.Printf(", relay cursor epoch=%d seq=%d", ckpt.Relay.Epoch, ckpt.Relay.Seq)
			}
			fmt.Println()
		} else {
			fmt.Println("checkpoint: none")
		}
		info, err := persist.ReadLog(*dir, 0, func(persist.Record) error { return nil })
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wal: ok, %d records in %d segments, seq %d..%d", info.Records, info.Segments, info.FirstSeq, info.LastSeq)
		if info.TruncatedBytes > 0 {
			fmt.Printf(" (torn tail of %d bytes; node recovery would truncate it)", info.TruncatedBytes)
		}
		fmt.Println()
	case "dump":
		if ckpt != nil {
			fmt.Printf("checkpoint seq=%d pending=%d\n", ckpt.WALSeq, len(ckpt.Shuffler.Pending))
		}
		if _, err := persist.ReadLog(*dir, 0, func(rec persist.Record) error {
			switch rec.Type {
			case persist.RecordFlush:
				fmt.Printf("seq=%d flush\n", rec.Seq)
			case persist.RecordDeliver:
				fmt.Printf("seq=%d deliver origin=%s epoch=%d peer_seq=%d n=%d\n",
					rec.Seq, rec.Origin, rec.Epoch, rec.PeerSeq, len(rec.Tuples))
			case persist.RecordTuples:
				fmt.Printf("seq=%d tuples n=%d\n", rec.Seq, len(rec.Tuples))
			case persist.RecordCursor:
				fmt.Printf("seq=%d cursor epoch=%d fwd_seq=%d\n", rec.Seq, rec.Epoch, rec.PeerSeq)
			default:
				return fmt.Errorf("unknown record type %d at seq %d", rec.Type, rec.Seq)
			}
			return nil
		}); err != nil {
			fatal(err)
		}
	case "replay":
		if *node == "" {
			fatal(fmt.Errorf("replay needs -node URL"))
		}
		// Pre-scan: validate the log and refuse a pruned history before a
		// single record reaches the target node.
		info, err := persist.ReadLog(*dir, 0, func(persist.Record) error { return nil })
		if err != nil {
			fatal(err)
		}
		if info.FirstSeq != 1 {
			fatal(fmt.Errorf("log starts at seq %d, not 1: earlier records were pruned (run the source node with -wal-retain for a replayable history)", info.FirstSeq))
		}
		client := &http.Client{Timeout: 30 * time.Second}
		var records, tuples int
		enc := []byte(nil)
		_, err = persist.ReadLog(*dir, 0, func(rec persist.Record) error {
			records++
			switch rec.Type {
			case persist.RecordFlush:
				return post(client, *node+"/shuffler/flush", "", nil, http.StatusNoContent)
			case persist.RecordDeliver:
				// Relay-forwarded batches bypassed the shuffler originally, so
				// the replay must too: re-deliver at the original (origin,
				// epoch, seq) position. The target's duplicate guard makes the
				// replay idempotent.
				tuples += len(rec.Tuples)
				enc = transport.AppendTuples(enc[:0], rec.Tuples)
				return deliverPeer(client, *node, *peerToken, rec, enc)
			case persist.RecordTuples:
				tuples += len(rec.Tuples)
				enc = transport.AppendTuples(enc[:0], rec.Tuples)
				return post(client, *node+"/shuffler/reports", transport.ContentTypeBinary, enc, http.StatusAccepted)
			case persist.RecordCursor:
				// The source relay's forwarding identity, not ingestion input:
				// nothing to re-submit. The record is counted but carries no
				// tuples, so replay equivalence is unaffected.
				return nil
			default:
				return fmt.Errorf("unknown record type %d at seq %d", rec.Type, rec.Seq)
			}
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replayed %d records (%d tuples) to %s\n", records, tuples, *node)
	default:
		fatal(fmt.Errorf("unknown mode %q (want verify, dump or replay)", mode))
	}
}

// deliverPeer re-delivers one relay-forwarded batch to the target's
// /peer/ingest route at its original stream position.
func deliverPeer(client *http.Client, node, token string, rec persist.Record, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, node+"/peer/ingest", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", transport.ContentTypeBinary)
	req.Header.Set(topology.OriginHeader, rec.Origin)
	req.Header.Set(topology.EpochHeader, strconv.FormatUint(rec.Epoch, 10))
	req.Header.Set(topology.SeqHeader, strconv.FormatUint(rec.PeerSeq, 10))
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("post %s/peer/ingest: status %d: %s", node, resp.StatusCode, msg)
	}
	return nil
}

func post(client *http.Client, url, contentType string, body []byte, want int) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	resp, err := client.Post(url, contentType, rd)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("post %s: status %d: %s", url, resp.StatusCode, msg)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "p2bwal:", err)
	os.Exit(1)
}
