package tpcc

import "fmt"

// CheckConsistency verifies the TPC-C consistency conditions that remain
// decidable under this implementation's ring-buffer storage (see
// DESIGN.md). It must be called quiescently (no concurrent transactions).
// It returns the first violation found, or nil.
//
// Checks implemented, following the spec's consistency conditions §3.3.2:
//
//  1. W_YTD == Σ D_YTD for every warehouse (condition 1).
//  2. D_NEXT_O_ID monotonicity: oldest-undelivered ≤ next order id, and
//     next never below the initial population (condition 2-ish).
//  3. Every live order's OL_CNT ∈ [5, 15] and its order lines carry valid
//     item ids — detects torn or lost multi-line commits (condition 3/7).
//  4. History/YTD balance: Σ history amounts == W_YTD − initial W_YTD,
//     when the history ring has not wrapped (condition 5-ish).
//  5. Stock sanity: S_QUANTITY ∈ [0, 100+91] for every item.
func (db *DB) CheckConsistency() error {
	h := db.heap
	for w := range db.ws {
		wh := &db.ws[w]
		var dYTDSum uint64
		for d := 0; d < DistrictsPerWarehouse; d++ {
			drow := wh.districts.row(d)
			dYTDSum += h.Load(drow + dYTD)

			next := h.Load(drow + dNextOID)
			oldest := h.Load(drow + dOldestNO)
			initial := h.Load(drow + dInitialOID)
			if next < initial {
				return fmt.Errorf("tpcc: w%d d%d: next order id %d below initial %d", w, d, next, initial)
			}
			if oldest > next {
				return fmt.Errorf("tpcc: w%d d%d: oldest undelivered %d beyond next %d", w, d, oldest, next)
			}

			// Live ring slots: the most recent min(next, ring) orders.
			lo := uint64(0)
			if next > uint64(db.cfg.OrderRing) {
				lo = next - uint64(db.cfg.OrderRing)
			}
			for oid := lo; oid < next; oid++ {
				slot := int(oid) % db.cfg.OrderRing
				orow := wh.orders[d].row(slot)
				olCnt := h.Load(orow + oOLCnt)
				if olCnt < MinOrderLines || olCnt > MaxOrderLines {
					return fmt.Errorf("tpcc: w%d d%d order %d: OL_CNT %d out of range", w, d, oid, olCnt)
				}
				for i := 0; i < int(olCnt); i++ {
					olrow := wh.lines[d].row(slot*MaxOrderLines + i)
					iid := h.Load(olrow + olIID)
					if iid >= uint64(db.cfg.Items()) {
						return fmt.Errorf("tpcc: w%d d%d order %d line %d: item id %d out of range (torn commit?)",
							w, d, oid, i, iid)
					}
				}
			}
		}
		wYTDv := h.Load(wh.w + wYTD)
		if wYTDv != dYTDSum {
			return fmt.Errorf("tpcc: w%d: W_YTD %d != Σ D_YTD %d (lost payment update)", w, wYTDv, dYTDSum)
		}

		hHead := h.Load(wh.w + wHHead)
		if hHead <= uint64(db.cfg.HistoryRing) {
			var hSum uint64
			for i := uint64(0); i < hHead; i++ {
				hSum += h.Load(wh.history.row(int(i)) + hAmount)
			}
			if db.initialWYTD+hSum != wYTDv {
				return fmt.Errorf("tpcc: w%d: history sum %d != W_YTD delta %d (lost history insert)",
					w, hSum, wYTDv-db.initialWYTD)
			}
		}

		for i := 0; i < db.cfg.Items(); i++ {
			q := h.Load(wh.stock.row(i) + sQuantity)
			if q > 191 {
				return fmt.Errorf("tpcc: w%d stock %d: quantity %d out of range (torn stock update)", w, i, q)
			}
		}
	}
	return nil
}

// TotalOrders counts orders entered since population, across all
// districts (from D_NEXT_O_ID deltas). Verification helper.
func (db *DB) TotalOrders() uint64 {
	var n uint64
	for w := range db.ws {
		for d := 0; d < DistrictsPerWarehouse; d++ {
			drow := db.ws[w].districts.row(d)
			n += db.heap.Load(drow+dNextOID) - db.heap.Load(drow+dInitialOID)
		}
	}
	return n
}

// WarehouseYTD returns warehouse w's year-to-date total (cents).
func (db *DB) WarehouseYTD(w int) uint64 {
	return db.heap.Load(db.ws[w].w + wYTD)
}
