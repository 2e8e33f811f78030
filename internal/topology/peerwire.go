// Binary peer updates: the one encoding both anti-entropy transfer paths
// speak — the push body of POST /peer/merge and the pull answer of GET
// /peer/contrib.
//
//	update := magic "P2BS" u8(version) uvarint(len(origin)) origin
//	          uvarint(epoch) uvarint(seq) state
//
// state is server.AppendState's layout (internal/server/statewire.go):
// uvarint shapes and counters, raw little-endian float64 cells, no relay
// guard. The decoder refuses a count the bytes left cannot cover before
// allocating for it, a non-finite float, a non-minimal uvarint and
// trailing bytes, so every accepted update has exactly one encoding.
package topology

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"p2b/internal/server"
	"p2b/internal/transport"
)

// ContentTypePeerState is the content type of a binary PeerUpdate.
const ContentTypePeerState = "application/x-p2b-state"

// peerStateMagic opens every binary PeerUpdate.
const peerStateMagic = "P2BS"

// peerStateVersion is the format version byte after the magic.
const peerStateVersion = 1

// MaxPeerUpdateBytes bounds one binary PeerUpdate on both transfer paths,
// the same 32 MiB a relay batch may take.
const MaxPeerUpdateBytes = 32 << 20

// AppendPeerUpdate appends the binary encoding of u to dst.
func AppendPeerUpdate(dst []byte, u PeerUpdate) ([]byte, error) {
	if u.State == nil {
		return dst, fmt.Errorf("topology: peer update from %q has no state", u.Origin)
	}
	dst = append(dst, peerStateMagic...)
	dst = append(dst, peerStateVersion)
	dst = binary.AppendUvarint(dst, uint64(len(u.Origin)))
	dst = append(dst, u.Origin...)
	dst = binary.AppendUvarint(dst, u.Epoch)
	dst = binary.AppendUvarint(dst, u.Seq)
	return server.AppendState(dst, u.State)
}

// DecodePeerUpdate parses one binary PeerUpdate.
func DecodePeerUpdate(data []byte) (PeerUpdate, error) {
	if len(data) < len(peerStateMagic) || string(data[:len(peerStateMagic)]) != peerStateMagic {
		return PeerUpdate{}, fmt.Errorf("topology: peer update does not start with magic %q", peerStateMagic)
	}
	r := transport.NewReader(data[len(peerStateMagic):], "topology: peer update")
	version, err := r.Byte("format version")
	if err != nil {
		return PeerUpdate{}, err
	}
	if version != peerStateVersion {
		return PeerUpdate{}, fmt.Errorf("topology: peer update format version %d, want %d", version, peerStateVersion)
	}
	n, err := r.Uvarint("origin length")
	if err != nil {
		return PeerUpdate{}, err
	}
	origin, err := r.Bytes(n, "origin")
	if err != nil {
		return PeerUpdate{}, err
	}
	u := PeerUpdate{Origin: string(origin)}
	if u.Epoch, err = r.Uvarint("epoch"); err != nil {
		return PeerUpdate{}, err
	}
	if u.Seq, err = r.Uvarint("seq"); err != nil {
		return PeerUpdate{}, err
	}
	if u.State, err = server.ReadState(&r); err != nil {
		return PeerUpdate{}, err
	}
	if err := r.Done(); err != nil {
		return PeerUpdate{}, err
	}
	return u, nil
}

// ReadPeerUpdate reads a whole binary PeerUpdate of at most
// MaxPeerUpdateBytes from body and decodes it. size is the declared length
// (an HTTP Content-Length, -1 when unknown). It sizes the buffer once;
// left to double its way up, the buffer made a default-shape round
// allocate four times the body.
func ReadPeerUpdate(body io.Reader, size int64) (PeerUpdate, error) {
	var buf bytes.Buffer
	buf.Grow(int(min(max(size, 0), MaxPeerUpdateBytes)) + bytes.MinRead)
	if _, err := buf.ReadFrom(io.LimitReader(body, MaxPeerUpdateBytes+1)); err != nil {
		return PeerUpdate{}, fmt.Errorf("topology: reading peer update: %w", err)
	}
	if buf.Len() > MaxPeerUpdateBytes {
		return PeerUpdate{}, fmt.Errorf("topology: peer update exceeds %d bytes", MaxPeerUpdateBytes)
	}
	return DecodePeerUpdate(buf.Bytes())
}
