#include "rules/violation_buffer.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace bigdansing {

namespace {

/// Identical values: same type and equal, doubles bit for bit (so -0.0 and
/// 0.0 stay apart). Stricter than Value::operator==, which equates int 1
/// and double 1.0.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.is_double()) {
    const double x = a.as_double();
    const double y = b.as_double();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  return a == b;
}

/// `x`, a part of an object of type `Owner`, as an rvalue when the object
/// is an rvalue (its parts may be moved from), else as a const lvalue.
template <typename Owner, typename T>
decltype(auto) ForwardLike(T& x) {
  if constexpr (std::is_lvalue_reference_v<Owner>) {
    return static_cast<const T&>(x);
  } else {
    return std::move(x);
  }
}

}  // namespace

void ViolationBuffer::Begin(const std::string& rule) {
  BD_CHECK(cells_.size() < UINT32_MAX && fixes_.size() < UINT32_MAX)
      << "violation buffer offsets overflow";
  entries_.push_back(Entry{Intern(rule, &rule_names_),
                           static_cast<uint32_t>(cells_.size()),
                           static_cast<uint32_t>(fixes_.size()), 0});
}

uint32_t ViolationBuffer::Intern(const std::string& name,
                                 std::vector<std::string>* names) {
  // A buffer holds a handful of rule and attribute names.
  for (size_t i = names->size(); i-- > 0;) {
    if ((*names)[i] == name) return static_cast<uint32_t>(i);
  }
  names->push_back(name);
  return static_cast<uint32_t>(names->size() - 1);
}

uint32_t ViolationBuffer::Pool(Value value, uint32_t attribute) {
  BD_CHECK(pool_.size() < kBorrowed) << "violation buffer value pool overflow";
  pool_.push_back(Pooled{std::move(value), attribute});
  return static_cast<uint32_t>(pool_.size() - 1);
}

void ViolationBuffer::AddConstantFix(uint32_t left, FixOp op,
                                     const Value& constant) {
  fixes_.push_back(BufferFix{left, Pool(constant, 0), op, false});
}

template <typename C>
uint32_t ViolationBuffer::AddObjectCell(C&& cell) {
  uint32_t value;
  if constexpr (std::is_lvalue_reference_v<C>) {
    BD_CHECK(borrowed_.size() < kBorrowed)
        << "violation buffer borrowed cells overflow";
    value = kPooled | kBorrowed | static_cast<uint32_t>(borrowed_.size());
    borrowed_.push_back(&cell);
  } else {
    value = kPooled | Pool(std::move(cell.value),
                           Intern(cell.attribute, &attributes_));
  }
  cells_.push_back(BufferCell{cell.ref.row_id,
                              static_cast<uint32_t>(cell.ref.column), value});
  return static_cast<uint32_t>(cells_.size() - 1 -
                               entries_.back().cell_begin);
}

template <typename C>
uint32_t ViolationBuffer::CellIndex(C&& cell) {
  Entry& entry = entries_.back();
  for (size_t i = entry.cell_begin; i < cells_.size(); ++i) {
    const BufferCell& c = cells_[i];
    if (c.ref() == cell.ref && attribute(c) == cell.attribute &&
        SameValue(value(c), cell.value)) {
      return static_cast<uint32_t>(i - entry.cell_begin);
    }
  }
  ++entry.extras;
  return AddObjectCell(std::forward<C>(cell));
}

template <typename V, typename F>
void ViolationBuffer::AppendObject(V&& violation, F&& fixes) {
  Begin(violation.rule_name);
  for (auto& c : violation.cells) AddObjectCell(ForwardLike<V>(c));
  for (auto& fix : fixes) {
    const uint32_t left = CellIndex(ForwardLike<F>(fix.left));
    if (fix.right.is_cell) {
      AddFix(left, fix.op, CellIndex(ForwardLike<F>(fix.right.cell)));
    } else {
      fixes_.push_back(BufferFix{
          left, Pool(ForwardLike<F>(fix.right.constant), 0), fix.op,
          false});
    }
  }
}

void ViolationBuffer::Append(Violation&& violation, std::vector<Fix>&& fixes) {
  AppendObject(std::move(violation), std::move(fixes));
}

void ViolationBuffer::AppendAll(const std::vector<ViolationBuffer*>& parts) {
  auto part = parts.begin();
  if (empty()) {
    while (part != parts.end() && (*part)->empty()) ++part;
    if (part == parts.end()) return;
    Append(std::move(**part));
    ++part;
  }
  size_t entries = 0, cells = 0, fixes = 0, pool = 0, borrowed = 0;
  for (auto rest = part; rest != parts.end(); ++rest) {
    entries += (*rest)->entries_.size();
    cells += (*rest)->cells_.size();
    fixes += (*rest)->fixes_.size();
    pool += (*rest)->pool_.size();
    borrowed += (*rest)->borrowed_.size();
  }
  entries_.reserve(entries_.size() + entries);
  cells_.reserve(cells_.size() + cells);
  fixes_.reserve(fixes_.size() + fixes);
  pool_.reserve(pool_.size() + pool);
  borrowed_.reserve(borrowed_.size() + borrowed);
  for (; part != parts.end(); ++part) Append(std::move(**part));
}

void ViolationBuffer::Append(ViolationBuffer&& other) {
  if (other.empty()) return;
  if (table_ == nullptr) table_ = other.table_;
  if (entries_.empty() && pool_.empty() && borrowed_.empty()) {
    const Table* table = table_;
    *this = std::move(other);
    table_ = table;
    return;
  }
  BD_CHECK(cells_.size() + other.cells_.size() < UINT32_MAX &&
           fixes_.size() + other.fixes_.size() < UINT32_MAX &&
           pool_.size() + other.pool_.size() < kBorrowed &&
           borrowed_.size() + other.borrowed_.size() < kBorrowed)
      << "violation buffer offsets overflow";
  std::vector<uint32_t> rule_of(other.rule_names_.size());
  for (size_t r = 0; r < rule_of.size(); ++r) {
    rule_of[r] = Intern(other.rule_names_[r], &rule_names_);
  }
  const auto cell_shift = static_cast<uint32_t>(cells_.size());
  const auto fix_shift = static_cast<uint32_t>(fixes_.size());
  const auto pool_shift = static_cast<uint32_t>(pool_.size());
  const auto borrowed_shift = static_cast<uint32_t>(borrowed_.size());
  entries_.reserve(entries_.size() + other.entries_.size());
  for (const Entry& e : other.entries_) {
    entries_.push_back(Entry{rule_of[e.rule], e.cell_begin + cell_shift,
                             e.fix_begin + fix_shift, e.extras});
  }
  borrowed_.insert(borrowed_.end(), other.borrowed_.begin(),
                   other.borrowed_.end());
  if (other.pool_.empty() && other.borrowed_.empty()) {
    cells_.insert(cells_.end(), other.cells_.begin(), other.cells_.end());
    fixes_.insert(fixes_.end(), other.fixes_.begin(), other.fixes_.end());
    return;
  }
  cells_.reserve(cells_.size() + other.cells_.size());
  for (BufferCell c : other.cells_) {
    if (c.value & kPooled) {
      c.value += (c.value & kBorrowed) ? borrowed_shift : pool_shift;
    }
    cells_.push_back(c);
  }
  fixes_.reserve(fixes_.size() + other.fixes_.size());
  for (BufferFix f : other.fixes_) {
    if (!f.right_is_cell) f.right += pool_shift;
    fixes_.push_back(f);
  }
  std::vector<uint32_t> attribute_of(other.attributes_.size());
  for (size_t a = 0; a < attribute_of.size(); ++a) {
    attribute_of[a] = Intern(other.attributes_[a], &attributes_);
  }
  pool_.reserve(pool_.size() + other.pool_.size());
  for (Pooled& p : other.pool_) {
    // Constants carry attribute 0 whether or not a name exists there.
    const uint32_t attribute =
        p.attribute < attribute_of.size() ? attribute_of[p.attribute] : 0;
    pool_.push_back(Pooled{std::move(p.value), attribute});
  }
}

void ViolationBuffer::Retain(const std::vector<char>& keep) {
  size_t kept = 0;
  size_t cell_write = 0;
  size_t fix_write = 0;
  for (size_t v = 0; v < entries_.size(); ++v) {
    if (!keep[v]) continue;
    // Read v's ranges before entry `kept` (<= v) is overwritten; the
    // ranges only ever move down.
    const Entry e = entries_[v];
    const size_t cell_end = this->cell_end(v);
    const size_t fix_end = this->fix_end(v);
    // Every violation kept so far leaves v's ranges where they are; a
    // range that moves lands wholly before where it starts.
    if (cell_write != e.cell_begin) {
      std::copy(cells_.begin() + e.cell_begin, cells_.begin() + cell_end,
                cells_.begin() + cell_write);
    }
    if (fix_write != e.fix_begin) {
      std::copy(fixes_.begin() + e.fix_begin, fixes_.begin() + fix_end,
                fixes_.begin() + fix_write);
    }
    entries_[kept++] = Entry{e.rule, static_cast<uint32_t>(cell_write),
                             static_cast<uint32_t>(fix_write), e.extras};
    cell_write += cell_end - e.cell_begin;
    fix_write += fix_end - e.fix_begin;
  }
  entries_.resize(kept);
  cells_.resize(cell_write);
  fixes_.resize(fix_write);
}

void ViolationBuffer::ToObject(size_t v, ViolationWithFixes* out) const {
  const std::span<const BufferCell> cells = this->cells(v);
  const std::span<const BufferFix> fixes = this->fixes(v);
  // Every object is written in place: no temporary cell, fix or term.
  auto fill = [this](const BufferCell& c, Cell* cell) {
    cell->ref = c.ref();
    cell->attribute = attribute(c);
    cell->value = value(c);
  };
  out->violation.rule_name = rule_name(v);
  out->violation.cells.resize(cells.size() - entries_[v].extras);
  for (size_t i = 0; i < out->violation.cells.size(); ++i) {
    fill(cells[i], &out->violation.cells[i]);
  }
  out->fixes.resize(fixes.size());
  for (size_t i = 0; i < fixes.size(); ++i) {
    const BufferFix& f = fixes[i];
    Fix& fix = out->fixes[i];
    fill(cells[f.left], &fix.left);
    fix.op = f.op;
    fix.right.is_cell = f.right_is_cell;
    if (f.right_is_cell) {
      fill(cells[f.right], &fix.right.cell);
    } else {
      fix.right.constant = constant(f);
    }
  }
}

ViolationBuffer ViolationBuffer::FromObjects(
    const std::vector<const ViolationWithFixes*>& violations) {
  ViolationBuffer out;
  size_t cells = 0;
  size_t fixes = 0;
  for (const ViolationWithFixes* vf : violations) {
    cells += vf->violation.cells.size();
    fixes += vf->fixes.size();
  }
  out.entries_.reserve(violations.size());
  out.cells_.reserve(cells);
  out.fixes_.reserve(fixes);
  out.borrowed_.reserve(cells);
  for (const ViolationWithFixes* vf : violations) {
    out.AppendObject(vf->violation, vf->fixes);
  }
  return out;
}

ViolationBuffer ViolationBuffer::FromObjects(
    std::span<const ViolationWithFixes> violations) {
  std::vector<const ViolationWithFixes*> all;
  all.reserve(violations.size());
  for (const auto& vf : violations) all.push_back(&vf);
  return FromObjects(all);
}

}  // namespace bigdansing
