// Package payloads is a bitsize fixture. Out and Broadcast mirror the
// runtime's shapes structurally, so the fixture needs no import of the real
// module.
package payloads

// Out mirrors runtime.Out.
type Out struct {
	To      int
	Payload any
}

// sized implements the bit-size interface on the value receiver.
type sized struct{ V int }

func (sized) Bits() int { return 32 }

// ptrSized implements it on the pointer receiver.
type ptrSized struct{ V int }

func (*ptrSized) Bits() int { return 64 }

// unsized implements nothing.
type unsized struct{ V int }

// Broadcast and BroadcastTo mirror the runtime helpers.
func Broadcast(n int, p any) []Out { return nil }

func BroadcastTo(ids []int, p any) []Out { return nil }

// Ctx mirrors core.StageCtx's broadcast methods, whose payload is the last
// (for Broadcast, the only) argument.
type Ctx struct{}

func (*Ctx) Broadcast(p any) []Out { return nil }

func (*Ctx) BroadcastActive(done []int, p any) []Out { return nil }

// Env mirrors runtime.Env's broadcast batches, which return nothing.
type Env struct{}

func (*Env) Broadcast(p any) {}

func (*Env) BroadcastMasked(tag uint32, mask []uint64, p any) {}

func build(to int) []Out {
	outs := []Out{
		{To: to, Payload: sized{V: 1}},
		{To: to, Payload: unsized{V: 1}}, // want `payload type unsized does not implement BitSized`
	}
	outs = append(outs, Out{to, &ptrSized{}})
	outs = append(outs, Out{to, ptrSized{}}) // want `payload type ptrSized does not implement BitSized`
	outs = append(outs, Out{to, unsized{}})  // want `payload type unsized does not implement BitSized`
	var o Out
	o.Payload = unsized{} // want `payload type unsized does not implement BitSized`
	o.Payload = sized{}
	o.Payload = nil
	outs = append(outs, o)
	outs = append(outs, Broadcast(to, unsized{})...) // want `payload type unsized does not implement BitSized`
	outs = append(outs, BroadcastTo([]int{to}, sized{})...)
	var c Ctx
	outs = append(outs, c.Broadcast(unsized{})...) // want `payload type unsized does not implement BitSized`
	outs = append(outs, c.Broadcast(sized{})...)
	outs = append(outs, c.BroadcastActive(nil, unsized{})...) // want `payload type unsized does not implement BitSized`
	outs = append(outs, c.BroadcastActive(nil, &ptrSized{})...)
	var e Env
	e.Broadcast(unsized{})               // want `payload type unsized does not implement BitSized`
	e.BroadcastMasked(1, nil, unsized{}) // want `payload type unsized does not implement BitSized`
	e.BroadcastMasked(1, []uint64{1}, sized{})
	return outs
}

// memory holds payloads a node broadcasts by pointer, so a large field is
// not boxed per message: a pointer to a sized field is sized, a pointer to
// an unsized one is not.
type memory struct {
	announce sized
	raw      unsized
}

func broadcastFields(c *Ctx, m *memory) []Out {
	outs := c.Broadcast(&m.announce)
	outs = append(outs, c.BroadcastActive(nil, &m.raw)...) // want `payload type \*unsized does not implement BitSized`
	return outs
}

// forward re-sends an interface-typed payload: checked where the concrete
// value was built, not here.
func forward(to int, p any) Out {
	return Out{To: to, Payload: p}
}

// allowedRelay documents a justified suppression.
func allowedRelay(to int) Out {
	//lint:allow bitsize (diagnostic-only payload, never sent under a CONGEST budget)
	return Out{To: to, Payload: unsized{}}
}
