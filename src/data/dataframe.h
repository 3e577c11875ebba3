// Column-major numeric table, the storage substrate for feature sets.
//
// A DataFrame owns named columns of doubles with a uniform row count.
// Feature transformation appends/replaces columns frequently, so columns are
// independent vectors (appending is O(rows), never a reshape).

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace fastft {

class DataFrame {
 public:
  DataFrame() = default;

  DataFrame(const DataFrame&) = default;
  DataFrame& operator=(const DataFrame&) = default;
  DataFrame(DataFrame&&) = default;
  DataFrame& operator=(DataFrame&&) = default;

  /// Appends a column. The first column fixes the row count; subsequent
  /// columns must match it.
  Status AddColumn(std::string name, std::vector<double> values);

  /// Replaces the values of column `index` (same length required).
  Status SetColumn(int index, std::vector<double> values);

  /// Removes column `index`.
  Status DropColumn(int index);

  int NumRows() const { return num_rows_; }
  int NumCols() const { return static_cast<int>(columns_.size()); }
  bool Empty() const { return columns_.empty(); }

  const std::vector<double>& Col(int index) const;
  std::vector<double>& MutableCol(int index);
  const std::string& Name(int index) const;

  /// Index of the column named `name`, or -1.
  int FindColumn(const std::string& name) const;

  /// Value accessor (row, col); bounds-checked in debug builds.
  double At(int row, int col) const { return columns_[col][row]; }

  /// Materializes row `row` as a dense vector.
  std::vector<double> Row(int row) const;

  /// New frame with only the given column indices, in the given order.
  DataFrame SelectColumns(const std::vector<int>& indices) const;

  /// Row-major copy of all values (rows × cols), for model training.
  std::vector<std::vector<double>> ToRows() const;

 private:
  int num_rows_ = 0;
  std::vector<std::string> names_;
  std::vector<std::vector<double>> columns_;
};

}  // namespace fastft

