package tpcc

import (
	"sihtm/internal/rng"
	"sihtm/internal/tm"
)

// The five transaction profiles. All random choices are drawn before the
// body runs so that a retried body replays identical accesses (the
// standard TM idempotency contract); outputs are written to the worker's
// scratch so the compiler cannot elide the reads.

// newOrderParams carries one NewOrder's pre-drawn randomness.
type newOrderParams struct {
	w, d, c int
	entryD  uint64
	items   [MaxOrderLines]struct {
		id      int
		supplyW int
		qty     uint64
	}
	olCnt int
}

func (db *DB) drawNewOrder(r *rng.Rand, homeW int, seq uint64) newOrderParams {
	p := newOrderParams{
		w:      homeW,
		d:      r.Intn(DistrictsPerWarehouse),
		c:      r.CustomerID(db.cfg.CustomersPerDistrict(), db.cCust) - 1,
		olCnt:  r.IntRange(MinOrderLines, MaxOrderLines),
		entryD: seq,
	}
	for i := 0; i < p.olCnt; i++ {
		p.items[i].id = r.ItemID(db.cfg.Items(), db.cItem) - 1
		p.items[i].supplyW = homeW
		if len(db.ws) > 1 && r.Bool(1) { // 1% remote supply
			for {
				sw := r.Intn(len(db.ws))
				if sw != homeW {
					p.items[i].supplyW = sw
					break
				}
			}
		}
		p.items[i].qty = uint64(r.IntRange(1, 10))
	}
	return p
}

// NewOrder is TPC-C's order-entry transaction (≈45% of the standard mix).
// Its footprint — district row, customer row, ~10 stock lines, an order
// row and ~8 order-line lines — is what makes "roughly half" of the
// standard mix large, per the paper.
func (db *DB) newOrder(ops tm.Ops, p newOrderParams) {
	wh := &db.ws[p.w]
	nc := db.cfg.CustomersPerDistrict()

	wTaxV := ops.Read(wh.w + wTax)
	drow := wh.districts.row(p.d)
	dTaxV := ops.Read(drow + dTax)
	oid := ops.Read(drow + dNextOID)
	ops.Write(drow+dNextOID, oid+1)

	crow := wh.customers.row(p.d*nc + p.c)
	discount := ops.Read(crow + cDiscount)

	slot := int(oid) % db.cfg.OrderRing
	orow := wh.orders[p.d].row(slot)
	ops.Write(orow+oCID, uint64(p.c))
	ops.Write(orow+oEntryD, p.entryD)
	ops.Write(orow+oCarrier, 0)
	ops.Write(orow+oOLCnt, uint64(p.olCnt))
	allLocal := uint64(1)

	var total uint64
	for i := 0; i < p.olCnt; i++ {
		it := p.items[i]
		irow := db.items.row(it.id)
		price := ops.Read(irow + iPrice)

		srow := db.ws[it.supplyW].stock.row(it.id)
		q := ops.Read(srow + sQuantity)
		if q >= it.qty+10 {
			q -= it.qty
		} else {
			q = q - it.qty + 91
		}
		ops.Write(srow+sQuantity, q)
		ops.Write(srow+sYTD, ops.Read(srow+sYTD)+it.qty)
		ops.Write(srow+sOrderCnt, ops.Read(srow+sOrderCnt)+1)
		if it.supplyW != p.w {
			ops.Write(srow+sRemoteCnt, ops.Read(srow+sRemoteCnt)+1)
			allLocal = 0
		}

		amount := it.qty * price
		total += amount
		olrow := wh.lines[p.d].row(slot*MaxOrderLines + i)
		ops.Write(olrow+olIID, uint64(it.id))
		ops.Write(olrow+olSupplyW, uint64(it.supplyW))
		ops.Write(olrow+olQuantity, it.qty)
		ops.Write(olrow+olAmount, amount)
		ops.Write(olrow+olDeliverD, 0)
		ops.Write(olrow+olDistHash, ops.Read(srow+sDistHash))
	}
	ops.Write(orow+oAllLocal, allLocal)
	// total with taxes and discount, in the spec's formula shape.
	total = total * (10000 - discount) / 10000
	total = total * (10000 + wTaxV + dTaxV) / 10000
	ops.Write(orow+oTotal, total)
	ops.Write(crow+cLastOID, oid+1)
}

// paymentParams carries one Payment's pre-drawn randomness.
type paymentParams struct {
	w, d       int // paying district
	cw, cd, c  int // customer coordinates (15% remote)
	amount     uint64
	byLastName bool
}

func (db *DB) drawPayment(r *rng.Rand, homeW int) paymentParams {
	p := paymentParams{
		w:      homeW,
		d:      r.Intn(DistrictsPerWarehouse),
		amount: uint64(r.IntRange(100, 500000)),
	}
	p.cw, p.cd = p.w, p.d
	if len(db.ws) > 1 && r.Bool(15) {
		for {
			cw := r.Intn(len(db.ws))
			if cw != homeW {
				p.cw = cw
				break
			}
		}
		p.cd = r.Intn(DistrictsPerWarehouse)
	}
	nc := db.cfg.CustomersPerDistrict()
	if r.Bool(60) {
		p.byLastName = true
		p.c = db.customerByName(p.cw, p.cd, r)
	} else {
		p.c = r.CustomerID(nc, db.cCust) - 1
	}
	return p
}

// customerByName picks the spec's "position n/2 rounded up" customer
// among those sharing a NURand last name, via the static side index.
func (db *DB) customerByName(w, d int, r *rng.Rand) int {
	name := r.LastNameNum(db.cLast)
	ids := db.nameIndex[w][d][name]
	for len(ids) == 0 { // scaled-down DBs may miss some names; probe on
		name = (name + 1) % 1000
		ids = db.nameIndex[w][d][name]
	}
	return ids[(len(ids)+1)/2-1]
}

// payment is TPC-C's payment transaction (≈43% of the standard mix): a
// small update transaction whose warehouse-YTD write is the global hot
// spot under high contention.
func (db *DB) payment(ops tm.Ops, p paymentParams) {
	wh := &db.ws[p.w]
	ops.Write(wh.w+wYTD, ops.Read(wh.w+wYTD)+p.amount)
	drow := wh.districts.row(p.d)
	ops.Write(drow+dYTD, ops.Read(drow+dYTD)+p.amount)

	nc := db.cfg.CustomersPerDistrict()
	crow := db.ws[p.cw].customers.row(p.cd*nc + p.c)
	ops.Write(crow+cBalance, ops.Read(crow+cBalance)-p.amount)
	ops.Write(crow+cYTDPayment, ops.Read(crow+cYTDPayment)+p.amount)
	ops.Write(crow+cPaymentCnt, ops.Read(crow+cPaymentCnt)+1)
	if ops.Read(crow+cCredit) == 1 { // bad credit: rewrite C_DATA
		old := ops.Read(crow + cDataLine)
		ops.Write(crow+cDataLine, hashStr(4, old, p.amount, uint64(p.c)))
		ops.Write(crow+cDataLine+1, uint64(p.w)<<32|uint64(p.d))
	}

	hIdx := ops.Read(wh.w + wHHead)
	ops.Write(wh.w+wHHead, hIdx+1)
	hrow := wh.history.row(int(hIdx) % db.cfg.HistoryRing)
	ops.Write(hrow+hCID, uint64(p.c))
	ops.Write(hrow+hCDID, uint64(p.cd))
	ops.Write(hrow+hCWID, uint64(p.cw))
	ops.Write(hrow+hDID, uint64(p.d))
	ops.Write(hrow+hWID, uint64(p.w))
	ops.Write(hrow+hAmount, p.amount)
}

// orderStatusParams carries one Order-Status's randomness.
type orderStatusParams struct {
	w, d, c int
}

func (db *DB) drawOrderStatus(r *rng.Rand, homeW int) orderStatusParams {
	p := orderStatusParams{w: homeW, d: r.Intn(DistrictsPerWarehouse)}
	nc := db.cfg.CustomersPerDistrict()
	if r.Bool(60) {
		p.c = db.customerByName(p.w, p.d, r)
	} else {
		p.c = r.CustomerID(nc, db.cCust) - 1
	}
	return p
}

// orderStatus is the read-only customer-order inquiry (80% of the paper's
// read-dominated mix). It returns a checksum of everything read so the
// reads cannot be optimised away.
func (db *DB) orderStatus(ops tm.Ops, p orderStatusParams) uint64 {
	wh := &db.ws[p.w]
	nc := db.cfg.CustomersPerDistrict()
	crow := wh.customers.row(p.d*nc + p.c)
	sum := ops.Read(crow + cBalance)
	lastOID := ops.Read(crow + cLastOID)
	if lastOID == 0 {
		return sum
	}
	oid := lastOID - 1
	drow := wh.districts.row(p.d)
	next := ops.Read(drow + dNextOID)
	if next > uint64(db.cfg.OrderRing) && oid < next-uint64(db.cfg.OrderRing) {
		return sum // order rotated out of the ring
	}
	slot := int(oid) % db.cfg.OrderRing
	orow := wh.orders[p.d].row(slot)
	sum += ops.Read(orow + oEntryD)
	sum += ops.Read(orow + oCarrier)
	olCnt := ops.Read(orow + oOLCnt)
	for i := 0; i < int(olCnt) && i < MaxOrderLines; i++ {
		olrow := wh.lines[p.d].row(slot*MaxOrderLines + i)
		sum += ops.Read(olrow+olIID) + ops.Read(olrow+olSupplyW) +
			ops.Read(olrow+olQuantity) + ops.Read(olrow+olAmount) +
			ops.Read(olrow+olDeliverD)
	}
	return sum
}

// deliveryParams carries one district-delivery's randomness.
type deliveryParams struct {
	w, d      int
	carrier   uint64
	deliveryD uint64
}

// deliverDistrict delivers the oldest undelivered order of one district
// (spec clause 2.7.4.2 permits splitting Delivery into per-district
// transactions). Returns false if the district had no undelivered order.
func (db *DB) deliverDistrict(ops tm.Ops, p deliveryParams) bool {
	wh := &db.ws[p.w]
	nc := db.cfg.CustomersPerDistrict()
	drow := wh.districts.row(p.d)
	oldest := ops.Read(drow + dOldestNO)
	next := ops.Read(drow + dNextOID)
	if next > uint64(db.cfg.OrderRing) && oldest < next-uint64(db.cfg.OrderRing) {
		// Producers lapped the ring; skip forgotten slots.
		oldest = next - uint64(db.cfg.OrderRing)
	}
	if oldest >= next {
		return false
	}
	ops.Write(drow+dOldestNO, oldest+1)

	slot := int(oldest) % db.cfg.OrderRing
	orow := wh.orders[p.d].row(slot)
	cid := ops.Read(orow + oCID)
	olCnt := ops.Read(orow + oOLCnt)
	ops.Write(orow+oCarrier, p.carrier)

	var total uint64
	for i := 0; i < int(olCnt) && i < MaxOrderLines; i++ {
		olrow := wh.lines[p.d].row(slot*MaxOrderLines + i)
		total += ops.Read(olrow + olAmount)
		ops.Write(olrow+olDeliverD, p.deliveryD)
	}
	crow := wh.customers.row(p.d*nc + int(cid)%nc)
	ops.Write(crow+cBalance, ops.Read(crow+cBalance)+total)
	ops.Write(crow+cDeliveryCnt, ops.Read(crow+cDeliveryCnt)+1)
	return true
}

// stockLevelParams carries one Stock-Level's randomness.
type stockLevelParams struct {
	w, d      int
	threshold uint64
}

// stockLevel is the read-only inventory scan: the last 20 orders'
// order-lines and their stock rows — by far the largest read footprint in
// TPC-C (hundreds of cache lines), the transaction that plain HTM cannot
// run and SI-HTM runs uninstrumented. seen is the worker's scratch for
// distinct-item filtering; it is reset here so retried bodies stay
// correct.
func (db *DB) stockLevel(ops tm.Ops, p stockLevelParams, seen []bool) int {
	wh := &db.ws[p.w]
	drow := wh.districts.row(p.d)
	next := ops.Read(drow + dNextOID)
	first := ops.Read(drow + dInitialOID)
	lo := uint64(0)
	if next > 20 {
		lo = next - 20
	}
	if lo < first-uint64(min(int(first), db.cfg.CustomersPerDistrict())) {
		lo = 0
	}
	for i := range seen {
		seen[i] = false
	}
	lowStock := 0
	for oid := lo; oid < next; oid++ {
		slot := int(oid) % db.cfg.OrderRing
		orow := wh.orders[p.d].row(slot)
		olCnt := ops.Read(orow + oOLCnt)
		for i := 0; i < int(olCnt) && i < MaxOrderLines; i++ {
			olrow := wh.lines[p.d].row(slot*MaxOrderLines + i)
			iid := int(ops.Read(olrow + olIID))
			if iid >= len(seen) || seen[iid] {
				continue
			}
			seen[iid] = true
			if ops.Read(wh.stock.row(iid)+sQuantity) < p.threshold {
				lowStock++
			}
		}
	}
	return lowStock
}
