package exec

import "github.com/catfish-db/catfish/internal/wire"

// WriteResult sends r as its wire messages: the descriptor of a fetched
// answer, or CONT/END response segments of at most MaxSegmentItems items
// (Final marks the last). send must not retain the buffer it is handed.
func (e *Executor[P]) WriteResult(r *Result, send func([]byte) error) error {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	if r.Fetched {
		*buf = r.Desc.Encode((*buf)[:0])
		return send(*buf)
	}
	items := r.Items
	for {
		seg := e.segment(r, &items, e.MaxSegmentItems)
		*buf = seg.Encode((*buf)[:0])
		if err := send(*buf); err != nil {
			return err
		}
		if seg.Final {
			return nil
		}
	}
}

// WriteBatch sends buffered batch results as batch containers of at most
// limit bytes. Each operation keeps its own CONT/END segmentation inside
// the containers, and a fetched answer travels as one descriptor
// sub-message. send must not retain the buffer it is handed.
func (e *Executor[P]) WriteBatch(res []Result, limit int, send func([]byte) error) error {
	maxItems := e.MaxSegmentItems
	hdr := wire.Response{}.EncodedSize()
	if fit := (limit - wire.BatchOverhead(1) - hdr) / wire.ItemSize; fit < maxItems {
		maxItems = fit
	}
	if maxItems < 1 {
		maxItems = 1
	}
	buf := wire.GetBuf()
	var enc wire.BatchEncoder
	enc.Reset((*buf)[:0])
	err := e.encodeBatch(&enc, res, limit, maxItems, send)
	if err == nil {
		err = flush(&enc, send)
	}
	*buf = enc.Buf[:0]
	wire.PutBuf(buf)
	return err
}

func (e *Executor[P]) encodeBatch(enc *wire.BatchEncoder, res []Result, limit, maxItems int, send func([]byte) error) error {
	for i := range res {
		r := &res[i]
		if r.Fetched {
			if enc.Count() > 0 && enc.Len()+wire.FetchDescSize+wire.BatchOverhead(1) > limit {
				if err := flush(enc, send); err != nil {
					return err
				}
			}
			enc.Begin()
			enc.Buf = r.Desc.Encode(enc.Buf)
			enc.End()
			continue
		}
		items := r.Items
		for {
			seg := e.segment(r, &items, maxItems)
			if enc.Count() > 0 && enc.Len()+seg.EncodedSize()+wire.BatchOverhead(1) > limit {
				if err := flush(enc, send); err != nil {
					return err
				}
			}
			enc.Begin()
			enc.Buf = seg.Encode(enc.Buf)
			enc.End()
			if seg.Final {
				break
			}
		}
	}
	return nil
}

// segment cuts r's next response segment off *items and counts it.
func (e *Executor[P]) segment(r *Result, items *[]wire.Item, max int) wire.Response {
	seg := wire.Response{ID: r.ID, Status: r.Status}
	if len(*items) > max {
		seg.Items, *items = (*items)[:max], (*items)[max:]
	} else {
		seg.Items, *items, seg.Final = *items, nil, true
	}
	e.Segments.Add(1)
	return seg
}

// flush sends the open container, if it holds anything, and starts the
// next one in the same buffer.
func flush(enc *wire.BatchEncoder, send func([]byte) error) error {
	if enc.Count() == 0 {
		return nil
	}
	err := send(enc.Bytes())
	enc.Reset(enc.Buf[:0])
	return err
}
