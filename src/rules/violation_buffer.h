#ifndef BIGDANSING_RULES_VIOLATION_BUFFER_H_
#define BIGDANSING_RULES_VIOLATION_BUFFER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/table.h"
#include "rules/violation.h"

namespace bigdansing {

/// One cell of a buffered violation: the row id, the base column, and where
/// its value lives.
struct BufferCell {
  RowId row = -1;
  uint32_t column = 0;
  /// The row's position in the buffer's table, kPooled | an index into the
  /// buffer's value pool, or kPooled | kBorrowed | an index into the object
  /// cells the buffer borrows.
  uint32_t value = 0;

  CellRef ref() const { return CellRef{row, column}; }
};

/// One possible fix of a buffered violation. Cells are named by their
/// index among the violation's cells.
struct BufferFix {
  uint32_t left = 0;
  /// A cell index when right_is_cell, else an index into the value pool.
  uint32_t right = 0;
  FixOp op = FixOp::kEq;
  bool right_is_cell = true;
};

/// Violations and their possible fixes as flat arrays: the one format
/// detection writes, the fix-point pools and every repair strategy reads
/// (DESIGN.md §17). Per violation a rule-name index, a cell range and a
/// fix range; no per-violation heap allocation.
///
/// A cell's value is read from the table the violation was detected in
/// (cells that compiled GenFix writes carry the row's table position), from
/// the value pool (cells moved out of Rule::Detect/GenFix objects, and fix
/// constants), or from an object cell the buffer borrows (FromObjects). The
/// table does not change between detection and repair within a fix-point
/// iteration, so every source reads the values detection saw.
///
/// Order contract: a violation's cells are the ones Rule::Detect listed,
/// then the cells only its fixes name, in fix order (left, then right). The
/// first appearance of every cell is then where it was in the object form's
/// mention order (violation cells, then each fix's left and right cell).
class ViolationBuffer {
 public:
  static constexpr uint32_t kPooled = uint32_t{1} << 31;
  static constexpr uint32_t kBorrowed = uint32_t{1} << 30;
  static constexpr uint32_t kIndex = kBorrowed - 1;

  ViolationBuffer() = default;
  /// A buffer whose table cells refer to `table` (null: no table cells).
  explicit ViolationBuffer(const Table* table) : table_(table) {}

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  size_t num_cells() const { return cells_.size(); }
  size_t num_fixes() const { return fixes_.size(); }
  void set_table(const Table* table) { table_ = table; }

  const std::string& rule_name(size_t v) const {
    return rule_names_[entries_[v].rule];
  }
  /// Index of violation v's first cell in the buffer-wide cell array:
  /// cells(v)[i] is cell(cell_begin(v) + i).
  size_t cell_begin(size_t v) const { return entries_[v].cell_begin; }
  const BufferCell& cell(size_t i) const { return cells_[i]; }
  /// Every cell of violation v: the ones Detect listed, then the ones only
  /// its fixes name.
  std::span<const BufferCell> cells(size_t v) const {
    return {cells_.data() + entries_[v].cell_begin,
            cell_end(v) - entries_[v].cell_begin};
  }
  std::span<const BufferFix> fixes(size_t v) const {
    return {fixes_.data() + entries_[v].fix_begin,
            fix_end(v) - entries_[v].fix_begin};
  }

  const Value& value(const BufferCell& c) const {
    if (!(c.value & kPooled)) return table_->row(c.value).value(c.column);
    const uint32_t i = c.value & kIndex;
    return (c.value & kBorrowed) ? borrowed_[i]->value : pool_[i].value;
  }
  /// The constant of a fix whose right side is not a cell.
  const Value& constant(const BufferFix& f) const {
    return pool_[f.right].value;
  }
  const std::string& attribute(const BufferCell& c) const {
    if (!(c.value & kPooled)) return table_->schema().attribute(c.column);
    const uint32_t i = c.value & kIndex;
    return (c.value & kBorrowed) ? borrowed_[i]->attribute
                                 : attributes_[pool_[i].attribute];
  }

  // --- Writing (compiled GenFix).

  /// Starts a violation of rule `rule`; the cells and fixes added next
  /// belong to it.
  void Begin(const std::string& rule);
  /// Adds a cell whose value is column `column` of the table's row at
  /// position `pos`; returns its index within the violation.
  uint32_t AddTableCell(RowId row, size_t column, uint32_t pos) {
    cells_.push_back(BufferCell{row, static_cast<uint32_t>(column), pos});
    return static_cast<uint32_t>(cells_.size() - entries_.back().cell_begin -
                                 1);
  }
  void AddFix(uint32_t left, FixOp op, uint32_t right) {
    fixes_.push_back(BufferFix{left, right, op, true});
  }
  void AddConstantFix(uint32_t left, FixOp op, const Value& constant);

  /// Appends a violation as Rule::Detect and Rule::GenFix built it; its
  /// values go to the pool, so it reads back exactly.
  void Append(Violation&& violation, std::vector<Fix>&& fixes);
  /// Appends every violation of `other` (cells of the same table), in
  /// order, shifting its offsets and pool indices.
  void Append(ViolationBuffer&& other);
  /// Appends each of `parts` in turn (moving from them), with room for all
  /// of them reserved once; into an empty buffer the first non-empty part
  /// moves whole.
  void AppendAll(const std::vector<ViolationBuffer*>& parts);

  /// Keeps only the violations v with keep[v], in order.
  void Retain(const std::vector<char>& keep);

  // --- The object form (public Detect output, public Repair input).

  /// Violation v as Rule::Detect/GenFix objects, built with exact reserves.
  void ToObject(size_t v, ViolationWithFixes* out) const;
  /// The objects as a buffer that borrows their cells: values and attribute
  /// names are read in place, not copied, so the buffer must not outlive
  /// `violations`. Fix constants are copied into the pool.
  static ViolationBuffer FromObjects(
      std::span<const ViolationWithFixes> violations);
  static ViolationBuffer FromObjects(
      const std::vector<const ViolationWithFixes*>& violations);

 private:
  struct Entry {
    uint32_t rule;
    uint32_t cell_begin;
    uint32_t fix_begin;
    /// Trailing cells that only the violation's fixes name.
    uint32_t extras;
  };
  struct Pooled {
    Value value;
    /// Index into attributes_; unused for fix constants.
    uint32_t attribute;
  };

  size_t cell_end(size_t v) const {
    return v + 1 < entries_.size() ? entries_[v + 1].cell_begin
                                   : cells_.size();
  }
  size_t fix_end(size_t v) const {
    return v + 1 < entries_.size() ? entries_[v + 1].fix_begin
                                   : fixes_.size();
  }
  static uint32_t Intern(const std::string& name,
                         std::vector<std::string>* names);
  uint32_t Pool(Value value, uint32_t attribute);
  /// Appends `cell` to the current violation: pooled when it is an rvalue
  /// (its value is moved), borrowed when it is a const lvalue. Returns its
  /// index within the violation.
  template <typename C>
  uint32_t AddObjectCell(C&& cell);
  /// Index of `cell` among the current violation's cells, appending it as
  /// an extra when no identical cell is there yet.
  template <typename C>
  uint32_t CellIndex(C&& cell);
  /// Append's body for objects to move from (rvalues) or to borrow.
  template <typename V, typename F>
  void AppendObject(V&& violation, F&& fixes);

  const Table* table_ = nullptr;
  std::vector<std::string> rule_names_;
  /// Attribute names of pooled cells.
  std::vector<std::string> attributes_;
  std::vector<Entry> entries_;
  std::vector<BufferCell> cells_;
  std::vector<BufferFix> fixes_;
  std::vector<Pooled> pool_;
  /// Object cells read in place (FromObjects).
  std::vector<const Cell*> borrowed_;
};

}  // namespace bigdansing

#endif  // BIGDANSING_RULES_VIOLATION_BUFFER_H_
