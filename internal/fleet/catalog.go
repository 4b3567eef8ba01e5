package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"sync"

	"facechange/internal/kview"
	"facechange/internal/mem"
)

// ChunkSize is the content-addressed transfer unit: one architectural page,
// so a node-side ChunkStore can intern every full chunk directly in the
// sha256 page cache the runtime already uses for shadow pages.
const ChunkSize = mem.PageSize

// ViewManifest describes one view in the catalog: its canonical encoding's
// digest, total size, and the ordered chunk hashes that reassemble it.
type ViewManifest struct {
	Name   string
	Digest Hash
	Size   uint64
	Chunks []Hash
}

// Manifest is the catalog's table of contents: what a node needs to decide
// which chunks it lacks. Views are sorted by name.
type Manifest struct {
	Gen   uint64
	Views []ViewManifest
}

// Digest returns the catalog *content* digest: a hash over the sorted view
// names and view digests, independent of the generation counter — two
// catalogs with the same views have the same digest no matter how many
// publishes it took to get there. This is the fleet's convergence check.
func (m Manifest) Digest() Hash {
	h := sha256.New()
	for _, v := range m.Views {
		var n [2]byte
		binary.BigEndian.PutUint16(n[:], uint16(len(v.Name)))
		h.Write(n[:])
		h.Write([]byte(v.Name))
		h.Write(v.Digest[:])
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// DigestString renders the content digest for logs and the fcfleet smoke.
func (m Manifest) DigestString() string {
	d := m.Digest()
	return hex.EncodeToString(d[:8])
}

// ChunkSet returns the set of chunk hashes across all views.
func (m Manifest) ChunkSet() map[Hash]struct{} {
	out := make(map[Hash]struct{})
	for _, v := range m.Views {
		for _, h := range v.Chunks {
			out[h] = struct{}{}
		}
	}
	return out
}

// manifestPayload:
//
//	u64 gen | u32 nviews
//	per view, sorted by name:
//	  str name | hash digest | u64 size | u32 nchunks | nchunks × hash
func encodeManifest(m Manifest) []byte {
	var b []byte
	b = binary.BigEndian.AppendUint64(b, m.Gen)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Views)))
	for _, v := range m.Views {
		b = appendStr(b, v.Name)
		b = append(b, v.Digest[:]...)
		b = binary.BigEndian.AppendUint64(b, v.Size)
		b = binary.BigEndian.AppendUint32(b, uint32(len(v.Chunks)))
		for _, h := range v.Chunks {
			b = append(b, h[:]...)
		}
	}
	return b
}

func decodeManifest(p []byte) (Manifest, error) {
	r := &wireReader{b: p}
	var m Manifest
	var err error
	if m.Gen, err = r.u64(); err != nil {
		return m, err
	}
	nviews, err := r.u32()
	if err != nil {
		return m, err
	}
	prev := ""
	for i := uint32(0); i < nviews; i++ {
		var v ViewManifest
		if v.Name, err = r.str(); err != nil {
			return m, err
		}
		if i > 0 && v.Name <= prev {
			return m, errProto("manifest views not sorted (%q after %q)", v.Name, prev)
		}
		prev = v.Name
		if v.Digest, err = r.hash(); err != nil {
			return m, err
		}
		if v.Size, err = r.u64(); err != nil {
			return m, err
		}
		nchunks, err := r.u32()
		if err != nil {
			return m, err
		}
		if uint64(nchunks)*sha256.Size > uint64(len(r.b)) {
			return m, errProto("view %q claims %d chunks, %d bytes left", v.Name, nchunks, len(r.b))
		}
		// The chunk list must actually cover Size bytes.
		if want := (v.Size + ChunkSize - 1) / ChunkSize; uint64(nchunks) != want {
			return m, errProto("view %q: %d chunks for %d bytes (want %d)", v.Name, nchunks, v.Size, want)
		}
		v.Chunks = make([]Hash, 0, nchunks)
		for j := uint32(0); j < nchunks; j++ {
			h, err := r.hash()
			if err != nil {
				return m, err
			}
			v.Chunks = append(v.Chunks, h)
		}
		m.Views = append(m.Views, v)
	}
	if err := r.end(); err != nil {
		return m, err
	}
	return m, nil
}

// ViewDigest returns the content digest of a view's canonical encoding —
// the key a sharded plane hashes onto its ring to pick the owning shard.
func ViewDigest(cfg *kview.View) (Hash, error) {
	data, err := cfg.MarshalBinary()
	if err != nil {
		return Hash{}, err
	}
	return sha256.Sum256(data), nil
}

// SplitChunks cuts a view encoding into ChunkSize pieces and returns them
// with their content hashes (the last chunk is short unless the encoding
// is page-aligned).
func SplitChunks(data []byte) []Chunk {
	out := make([]Chunk, 0, (len(data)+ChunkSize-1)/ChunkSize)
	for len(data) > 0 {
		n := min(len(data), ChunkSize)
		piece := data[:n:n]
		out = append(out, Chunk{Hash: sha256.Sum256(piece), Data: piece})
		data = data[n:]
	}
	return out
}

// catView is one catalog entry.
type catView struct {
	manifest ViewManifest
	cfg      *kview.View
}

// chunkData refcounts a chunk's bytes by the number of catalog views
// referencing it (shared chunks between view versions are stored once).
type chunkData struct {
	data []byte
	refs int
}

// Catalog is the server's canonical view store. Every mutation bumps the
// generation; the server broadcasts the new generation to connected nodes.
type Catalog struct {
	mu     sync.Mutex
	gen    uint64
	views  map[string]*catView
	chunks map[Hash]*chunkData
}

// NewCatalog creates an empty catalog at generation 0.
func NewCatalog() *Catalog {
	return &Catalog{views: make(map[string]*catView), chunks: make(map[Hash]*chunkData)}
}

// Put encodes a view canonically, chunks it and (re)registers it under
// cfg.App, returning the new generation. Replacing a view with identical
// content is a no-op (the generation does not move, no push happens).
func (c *Catalog) Put(cfg *kview.View) (uint64, error) {
	data, err := cfg.MarshalBinary()
	if err != nil {
		return 0, err
	}
	digest := sha256.Sum256(data)
	chunks := SplitChunks(data)
	vm := ViewManifest{Name: cfg.App, Digest: digest, Size: uint64(len(data))}
	for _, ch := range chunks {
		vm.Chunks = append(vm.Chunks, ch.Hash)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.views[cfg.App]; ok {
		if old.manifest.Digest == digest {
			return c.gen, nil
		}
		c.dropChunksLocked(old.manifest.Chunks)
	}
	for _, ch := range chunks {
		if e, ok := c.chunks[ch.Hash]; ok {
			e.refs++
		} else {
			c.chunks[ch.Hash] = &chunkData{data: ch.Data, refs: 1}
		}
	}
	c.views[cfg.App] = &catView{manifest: vm, cfg: cfg}
	c.gen++
	return c.gen, nil
}

// Remove drops a view, returning the new generation and whether it existed.
func (c *Catalog) Remove(name string) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.views[name]
	if !ok {
		return c.gen, false
	}
	c.dropChunksLocked(v.manifest.Chunks)
	delete(c.views, name)
	c.gen++
	return c.gen, true
}

func (c *Catalog) dropChunksLocked(hashes []Hash) {
	for _, h := range hashes {
		if e, ok := c.chunks[h]; ok {
			e.refs--
			if e.refs == 0 {
				delete(c.chunks, h)
			}
		}
	}
}

// Manifest snapshots the catalog's table of contents.
func (c *Catalog) Manifest() Manifest {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := Manifest{Gen: c.gen, Views: make([]ViewManifest, 0, len(c.views))}
	for _, v := range c.views {
		m.Views = append(m.Views, v.manifest)
	}
	sort.Slice(m.Views, func(i, j int) bool { return m.Views[i].Name < m.Views[j].Name })
	return m
}

// Gen returns the current generation.
func (c *Catalog) Gen() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Chunk returns a chunk's bytes by content hash.
func (c *Catalog) Chunk(h Hash) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.chunks[h]
	if !ok {
		return nil, false
	}
	return e.data, true
}

// AssembleView reassembles and decodes a view from chunk bytes fetched by
// get, verifying the manifest's digest before decoding — a node never
// loads a view whose bytes do not hash to what the catalog promised.
func AssembleView(vm ViewManifest, get func(Hash) ([]byte, bool)) (*kview.View, error) {
	var buf bytes.Buffer
	buf.Grow(int(vm.Size))
	for i, h := range vm.Chunks {
		data, ok := get(h)
		if !ok {
			return nil, errProto("view %q: missing chunk %d/%d", vm.Name, i+1, len(vm.Chunks))
		}
		buf.Write(data)
	}
	data := buf.Bytes()
	if uint64(len(data)) < vm.Size {
		return nil, errProto("view %q: assembled %d bytes, want %d", vm.Name, len(data), vm.Size)
	}
	data = data[:vm.Size]
	if sha256.Sum256(data) != vm.Digest {
		return nil, errProto("view %q: digest mismatch after assembly", vm.Name)
	}
	v, err := kview.UnmarshalBinary(data)
	if err != nil {
		return nil, errProto("view %q: %v", vm.Name, err)
	}
	if v.App != vm.Name {
		return nil, errProto("view %q decodes as app %q", vm.Name, v.App)
	}
	return v, nil
}
