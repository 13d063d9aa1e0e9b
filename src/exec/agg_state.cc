#include "exec/agg_state.h"

#include <bit>
#include <functional>

namespace aidb::exec {

Value FinalizeAgg(sql::AggFunc func, const AggAcc& acc) {
  switch (func) {
    case sql::AggFunc::kCount:
      return Value(static_cast<int64_t>(acc.count));
    case sql::AggFunc::kSum:
      return acc.count ? Value(acc.sum) : Value::Null();
    case sql::AggFunc::kAvg:
      return acc.count ? Value(acc.sum / static_cast<double>(acc.count))
                       : Value::Null();
    case sql::AggFunc::kMin:
      return acc.count ? Value(acc.min) : Value::Null();
    case sql::AggFunc::kMax:
      return acc.count ? Value(acc.max) : Value::Null();
    case sql::AggFunc::kNone:
      return Value::Null();
  }
  return Value::Null();
}

void HashIdIndex::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<size_t>(16, old.size() * 2), Slot{});
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kNone) continue;
    size_t i = s.hash & mask_;
    while (slots_[i].id != kNone) i = (i + 1) & mask_;
    slots_[i] = s;
  }
}

// ----- GroupTable -----

namespace {

constexpr uint64_t kKeySeed = 0xcbf29ce484222325ULL;
constexpr uint64_t kKeyPrime = 0x100000001b3ULL;

}  // namespace

GroupTable::Cell GroupTable::CellOf(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: return {};
    case ValueType::kInt:
      return {ValueType::kInt, static_cast<uint64_t>(v.AsInt()), {}};
    case ValueType::kDouble:
      return {ValueType::kDouble, std::bit_cast<uint64_t>(v.AsDouble()), {}};
    case ValueType::kString: return {ValueType::kString, 0, v.AsString()};
  }
  return {};
}

GroupTable::Cell GroupTable::CellAt(const VecColumn& c, size_t r) {
  switch (c.kind) {
    case VecColumn::Kind::kNull: return {};
    case VecColumn::Kind::kGeneric: return CellOf(c.generic[r]);
    case VecColumn::Kind::kInt:
      if (!c.valid[r]) return {};
      return {ValueType::kInt, static_cast<uint64_t>(c.ints[r]), {}};
    case VecColumn::Kind::kDouble:
      if (!c.valid[r]) return {};
      return {ValueType::kDouble, std::bit_cast<uint64_t>(c.doubles[r]), {}};
    case VecColumn::Kind::kString:
      if (!c.valid[r]) return {};
      return {ValueType::kString, 0, c.dict[static_cast<size_t>(c.codes[r])]};
  }
  return {};
}

uint64_t GroupTable::CellHash(const Cell& c) {
  switch (c.type) {
    case ValueType::kNull: return 0x9e3779b97f4a7c15ULL;
    case ValueType::kInt: return c.bits;
    case ValueType::kDouble: {
      // -0.0 == 0.0, so both must hash alike.
      const double d = std::bit_cast<double>(c.bits);
      return std::bit_cast<uint64_t>(d == 0.0 ? 0.0 : d) ^ 0x5bd1e995ULL;
    }
    case ValueType::kString: return std::hash<std::string_view>{}(c.str);
  }
  return 0;
}

bool GroupTable::CellEquals(size_t k, uint32_t g, const Cell& c) const {
  const KeyColumn& col = cols_[k];
  if (col.types[g] != c.type) return false;
  switch (c.type) {
    case ValueType::kNull: return true;
    case ValueType::kInt: return col.bits[g] == c.bits;
    case ValueType::kDouble:
      return std::bit_cast<double>(col.bits[g]) == std::bit_cast<double>(c.bits);
    case ValueType::kString: return col.pool[col.bits[g]] == c.str;
  }
  return false;
}

uint32_t GroupTable::Add(uint64_t h, const Cell* cells) {
  for (size_t k = 0; k < cols_.size(); ++k) {
    KeyColumn& col = cols_[k];
    col.types.push_back(cells[k].type);
    if (cells[k].type == ValueType::kString) {
      col.bits.push_back(col.pool.size());
      col.pool.emplace_back(cells[k].str);
    } else {
      col.bits.push_back(cells[k].bits);
    }
  }
  const uint32_t g = static_cast<uint32_t>(size_++);
  index_.Insert(h, g);
  if (cols_.size() == 1 && cells[0].type == ValueType::kInt) {
    direct_.Insert(cells[0].bits, g);
  }
  return g;
}

uint32_t GroupTable::FindOrInsert(const Cell* cells) {
  uint64_t h = kKeySeed;
  for (size_t k = 0; k < cols_.size(); ++k) {
    h = (h ^ CellHash(cells[k])) * kKeyPrime;
  }
  h = MixHash(h);
  uint32_t g = index_.Find(h, [&](uint32_t id) {
    for (size_t k = 0; k < cols_.size(); ++k) {
      if (!CellEquals(k, id, cells[k])) return false;
    }
    return true;
  });
  return g != HashIdIndex::kNone ? g : Add(h, cells);
}

uint32_t GroupTable::FindOrInsert(const Tuple& key) {
  cells_.resize(cols_.size());
  for (size_t k = 0; k < cols_.size(); ++k) cells_[k] = CellOf(key[k]);
  return FindOrInsert(cells_.data());
}

void GroupTable::Map(const std::vector<const VecColumn*>& keys,
                     const Batch& in, std::vector<uint32_t>* gids) {
  const size_t n = in.ActiveCount();
  gids->resize(n);
  uint32_t* out = gids->data();
  if (keys.size() == 1 && keys[0]->kind == VecColumn::Kind::kInt) {
    const VecColumn& c = *keys[0];
    const int64_t* v = c.ints.data();
    const uint8_t* valid = c.valid.data();
    for (size_t s = 0; s < n; ++s) {
      const uint32_t r = in.ActiveRow(s);
      uint32_t g = valid[r] ? direct_.Find(static_cast<uint64_t>(v[r]))
                            : HashIdIndex::kNone;
      if (g == HashIdIndex::kNone) {
        const Cell key = CellAt(c, r);
        g = FindOrInsert(&key);
      }
      out[s] = g;
    }
    return;
  }
  cells_.resize(keys.size());
  for (size_t s = 0; s < n; ++s) {
    const uint32_t r = in.ActiveRow(s);
    for (size_t k = 0; k < keys.size(); ++k) cells_[k] = CellAt(*keys[k], r);
    out[s] = FindOrInsert(cells_.data());
  }
}

Value GroupTable::KeyAt(size_t k, uint32_t g) const {
  const KeyColumn& col = cols_[k];
  switch (col.types[g]) {
    case ValueType::kNull: return Value::Null();
    case ValueType::kInt: return Value(static_cast<int64_t>(col.bits[g]));
    case ValueType::kDouble: return Value(std::bit_cast<double>(col.bits[g]));
    case ValueType::kString: return Value(col.pool[col.bits[g]]);
  }
  return Value::Null();
}

}  // namespace aidb::exec
