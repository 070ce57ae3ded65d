package chunkstore

import (
	"bytes"
	"errors"
	"testing"

	"tdb/internal/sec"
)

// FuzzWriteRecord feeds arbitrary bytes to the record decoder
// (parseRecordBytes) and the write-record validator every read path shares
// (writeRecordCiphertext), seeded with records a real store wrote. The bytes
// come from the untrusted store, so neither may panic, every rejection must
// match ErrTampered, and an accepted record must carry the ciphertext the
// location map authenticates. Each input is tried twice: as a raw record
// image, and as a write-record body framed with a valid header and CRC, so
// mutations also reach the validator past the CRC check.
//
//	go test ./internal/chunkstore -run XXX -fuzz FuzzWriteRecord -fuzztime 10s
func FuzzWriteRecord(f *testing.F) {
	env := newTestEnv(f, "aes-sha256")
	s := env.open(f)
	defer s.Close()
	type stored struct {
		cid ChunkID
		e   entry
	}
	var chunks []stored
	for _, n := range []int{0, 1, 100, 4 << 10} {
		cid := allocWrite(f, s, bytes.Repeat([]byte{byte(n)}, n))
		e := chunkLoc(f, s, cid)
		raw := make([]byte, e.loc.Len)
		s.mu.Lock()
		err := s.segs.readAt(s.segs.segs[e.loc.Seg], raw, int64(e.loc.Off))
		s.mu.Unlock()
		if err != nil {
			f.Fatalf("reading the record of chunk %d: %v", cid, err)
		}
		f.Add(raw, uint8(len(chunks)))
		f.Add(raw[recordHeaderSize:], uint8(len(chunks)))
		chunks = append(chunks, stored{cid, e})
	}

	f.Fuzz(func(t *testing.T, raw []byte, pick uint8) {
		c := chunks[int(pick)%len(chunks)]
		for _, img := range [][]byte{raw, encodeRecord(recWrite, raw)} {
			loc := c.e.loc
			loc.Len = uint32(len(img))
			typ, body, err := parseRecordBytes(loc, img)
			if err != nil {
				if !errors.Is(err, ErrTampered) {
					t.Fatalf("parseRecordBytes rejected with %v, want ErrTampered", err)
				}
				continue
			}
			ciphertext, err := s.writeRecordCiphertext(c.cid, c.e, typ, body)
			if err != nil {
				if !errors.Is(err, ErrTampered) {
					t.Fatalf("writeRecordCiphertext rejected with %v, want ErrTampered", err)
				}
				continue
			}
			if !sec.HashEqual(s.suite.Hash(ciphertext), c.e.hash) {
				t.Fatal("validator accepted a ciphertext that fails the location map's hash")
			}
		}
	})
}
