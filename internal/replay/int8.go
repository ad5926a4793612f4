package replay

// Int8 storage tier for replay payloads. Latents are quantized on insert —
// int8 buffer plus one fp32 symmetric per-tensor scale, following Ravaglia et
// al.'s quantized latent replay — and dequantized on rehearsal into workspace
// scratch the codec owns, so the steady-state training loop stays at zero
// heap allocations while the store holds ~4× the samples per byte.

import (
	"fmt"

	"chameleon/internal/obs"
	"chameleon/internal/quant"
	"chameleon/internal/tensor"
)

var (
	int8Encodes = obs.Default().Counter("replay_int8_encodes_total")
	int8Decodes = obs.Default().Counter("replay_int8_decodes_total")
)

// Int8Codec converts items between the fp32 and int8 representations for one
// store. Each store owns its own codec (stores are single-writer, like the
// learners that own them), so decode scratch is never shared across
// goroutines. The scratch tensors come from a tensor.Workspace and persist
// across draws: slot i is reused by the next decode into slot i, which makes
// a decoded latent valid exactly until the store's next draw — the lifetime
// rehearsal needs, at zero steady-state allocations.
type Int8Codec struct {
	ws      *tensor.Workspace
	scratch []*tensor.Tensor
	shape   []int // canonical latent shape, shared by encoded items
}

// NewInt8Codec returns an empty codec.
func NewInt8Codec() *Int8Codec { return &Int8Codec{ws: tensor.NewWorkspace()} }

// Encode returns it with its latent quantized: QZ, Scale, and ZShape set and
// Z nil. Logits and GradSketch stay fp32 (DER's distillation targets and
// GSS's sketches are small and precision-sensitive). When recycle has the
// right length it is reused as the int8 buffer, so a steady-state eviction
// cycle — encode the newcomer into the victim's buffer — allocates nothing.
// Items without a latent, or already quantized, pass through unchanged.
func (c *Int8Codec) Encode(it Item, recycle []int8) Item {
	if it.Z == nil {
		return it
	}
	data := it.Z.Data()
	q := recycle
	if len(q) != len(data) {
		q = make([]int8, len(data))
	}
	it.Scale = quant.QuantizeInt8(q, data)
	it.QZ = q
	it.ZShape = c.shapeFor(it.Z)
	it.Z = nil
	int8Encodes.Add(1)
	return it
}

// shapeFor returns the codec's canonical shape slice when it matches z (the
// common case: every latent in a store has the model's latent shape), so
// encoded items share one slice instead of allocating per insert.
func (c *Int8Codec) shapeFor(z *tensor.Tensor) []int {
	s := z.Shape()
	if c.shape == nil {
		c.shape = append([]int(nil), s...)
	}
	if shapeEqual(c.shape, s) {
		return c.shape
	}
	return append([]int(nil), s...)
}

// Decode returns it with Z pointing at the dequantized values in the codec's
// slot'th scratch tensor and the quantized fields cleared, so a decoded item
// is indistinguishable from an fp32 one. Decoding a second item into the same
// slot overwrites the first's values — callers assign one slot per item of a
// draw and consume the batch before the next draw.
func (c *Int8Codec) Decode(it Item, slot int) Item {
	if it.QZ == nil {
		return it
	}
	for len(c.scratch) <= slot {
		c.scratch = append(c.scratch, nil)
	}
	t := c.scratch[slot]
	if t == nil || !shapeEqual(t.Shape(), it.ZShape) {
		c.ws.Put(t) // nil-safe; a same-length buffer comes straight back out
		t = c.ws.Get(it.ZShape...)
		c.scratch[slot] = t
	}
	quant.DequantizeInt8(t.Data(), it.QZ, it.Scale)
	it.Z = t
	it.QZ, it.Scale, it.ZShape = nil, 0, nil
	int8Decodes.Add(1)
	return it
}

// DecodeAlloc is Decode into a fresh tensor — the cold-path variant Items()
// uses so returned copies never alias codec scratch.
func (c *Int8Codec) DecodeAlloc(it Item) Item {
	if it.QZ == nil {
		return it
	}
	t := tensor.New(it.ZShape...)
	quant.DequantizeInt8(t.Data(), it.QZ, it.Scale)
	it.Z = t
	it.QZ, it.Scale, it.ZShape = nil, 0, nil
	int8Decodes.Add(1)
	return it
}

// decodeInto rewrites items[from:] in place, decoding each into the slot
// numbered by its position in items. A draw appended to an earlier one in the
// same slice therefore never overwrites the earlier draw's latents: both stay
// valid until the store's next draw into position 0.
func (c *Int8Codec) decodeInto(items []Item, from int) {
	for i := from; i < len(items); i++ {
		items[i] = c.Decode(items[i], i)
	}
}

func shapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkDtype validates restored items against the store's dtype: an int8
// store accepts only quantized items and an fp32 store only plain ones, so a
// cross-dtype restore errors instead of silently mixing representations.
// Legacy (pre-int8) checkpoints carry QZ == nil on every item — gob leaves
// absent fields at their zero value — so they decode as fp32 naturally.
// Quantized items are also shape-checked against their buffers, matching the
// hostile-gob hardening of the fp32 restore paths.
// CheckDtype validates a restored item list against a store's dtype: a
// quantized store requires every item to carry an int8 payload with coherent
// shape metadata, an fp32 store rejects any quantized item. The stores'
// SetState/SetContents paths call this internally; it is exported for
// learners that keep their own []Item buffers (Latent Replay, GSS) so their
// restore paths enforce the same cross-dtype errors.
func CheckDtype(items []Item, quantized bool, store string) error {
	return checkDtype(items, quantized, store)
}

func checkDtype(items []Item, quantized bool, store string) error {
	for i, it := range items {
		switch {
		case quantized && it.QZ == nil:
			return fmt.Errorf("replay: fp32 item %d restored into int8 %s (cross-dtype restore)", i, store)
		case !quantized && it.QZ != nil:
			return fmt.Errorf("replay: int8 item %d restored into fp32 %s (cross-dtype restore)", i, store)
		}
		if it.QZ == nil {
			continue
		}
		if it.Z != nil {
			return fmt.Errorf("replay: item %d carries both fp32 and int8 payloads", i)
		}
		n := 1
		for _, d := range it.ZShape {
			if d <= 0 {
				n = -1
				break
			}
			n *= d
		}
		if len(it.ZShape) == 0 || n != len(it.QZ) {
			return fmt.Errorf("replay: quantized item %d shape %v does not match %d-byte buffer", i, it.ZShape, len(it.QZ))
		}
	}
	return nil
}
