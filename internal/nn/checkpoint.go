package nn

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Checkpoint format: a small binary container for flattened model weights.
//
//	magic "A2CK" | version u32 | tensor count u32 |
//	per tensor: name length u32, name bytes, element count u32, f32 data |
//	crc32 (IEEE) of everything before it
//
// Tensors are stored in Params() order and loaded by position — names are
// labels, not keys (two layers of one shape share a name), so the stored name
// and element count only check that the file fits the model. The CRC turns
// truncated or corrupted files into clean errors instead of silently wrong
// weights.

const ckMagic = "A2CK"
const ckVersion = 1

// SaveParams writes every parameter tensor of the provided set to w.
func SaveParams(w io.Writer, params []Param) error {
	cw := &crcWriter{w: w}
	if _, err := cw.Write([]byte(ckMagic)); err != nil {
		return err
	}
	if err := writeU32(cw, ckVersion); err != nil {
		return err
	}
	if err := writeU32(cw, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeU32(cw, uint32(len(p.Name))); err != nil {
			return err
		}
		if _, err := cw.Write([]byte(p.Name)); err != nil {
			return err
		}
		if err := writeU32(cw, uint32(len(p.W))); err != nil {
			return err
		}
		buf := make([]byte, 4*len(p.W))
		for i, v := range p.W {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := cw.Write(buf); err != nil {
			return err
		}
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], cw.sum)
	_, err := w.Write(tail[:])
	return err
}

// LoadParams reads a checkpoint and copies the i-th stored tensor into
// params[i], which must carry the stored name and element count. It returns
// the names loaded, in order; parameters past the checkpoint's last tensor
// are left untouched.
func LoadParams(r io.Reader, params []Param) (loaded []string, err error) {
	cr := &crcReader{r: r}
	head := make([]byte, 4)
	if _, err := io.ReadFull(cr, head); err != nil {
		return nil, fmt.Errorf("nn: checkpoint header: %w", err)
	}
	if string(head) != ckMagic {
		return nil, fmt.Errorf("nn: not a checkpoint (magic %q)", head)
	}
	ver, err := readU32(cr)
	if err != nil {
		return nil, err
	}
	if ver != ckVersion {
		return nil, fmt.Errorf("nn: unsupported checkpoint version %d", ver)
	}
	count, err := readU32(cr)
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < count; i++ {
		nameLen, err := readU32(cr)
		if err != nil {
			return nil, err
		}
		if nameLen > 1<<16 {
			return nil, fmt.Errorf("nn: corrupt checkpoint: name length %d", nameLen)
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(cr, nameBuf); err != nil {
			return nil, err
		}
		name := string(nameBuf)
		elems, err := readU32(cr)
		if err != nil {
			return nil, err
		}
		// Validate against the model BEFORE allocating: a corrupted header
		// could otherwise demand a multi-gigabyte buffer.
		if uint64(i) >= uint64(len(params)) || params[i].Name != name {
			return nil, fmt.Errorf("nn: checkpoint tensor %d %q has no matching parameter", i, name)
		}
		p := params[i]
		if len(p.W) != int(elems) {
			return nil, fmt.Errorf("nn: tensor %q has %d elements, model expects %d", name, elems, len(p.W))
		}
		buf := make([]byte, 4*elems)
		if _, err := io.ReadFull(cr, buf); err != nil {
			return nil, fmt.Errorf("nn: checkpoint tensor %q: %w", name, err)
		}
		for j := range p.W {
			p.W[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:]))
		}
		loaded = append(loaded, name)
	}
	want := cr.sum
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("nn: checkpoint checksum missing: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return nil, fmt.Errorf("nn: checkpoint checksum mismatch (file %08x, computed %08x)", got, want)
	}
	return loaded, nil
}

type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p)
	return c.w.Write(p)
}

type crcReader struct {
	r   io.Reader
	sum uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
	return n, err
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}
