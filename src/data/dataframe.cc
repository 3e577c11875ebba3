#include "data/dataframe.h"

#include <utility>

#include "common/logging.h"

namespace fastft {

Status DataFrame::AddColumn(std::string name, std::vector<double> values) {
  if (columns_.empty()) {
    num_rows_ = static_cast<int>(values.size());
  } else if (static_cast<int>(values.size()) != num_rows_) {
    return Status::InvalidArgument(
        "column '" + name + "' has " + std::to_string(values.size()) +
        " rows, frame has " + std::to_string(num_rows_));
  }
  names_.push_back(std::move(name));
  columns_.push_back(std::move(values));
  return Status::OK();
}

Status DataFrame::SetColumn(int index, std::vector<double> values) {
  if (index < 0 || index >= NumCols()) {
    return Status::OutOfRange("column index " + std::to_string(index));
  }
  if (static_cast<int>(values.size()) != num_rows_) {
    return Status::InvalidArgument("row count mismatch in SetColumn");
  }
  columns_[index] = std::move(values);
  return Status::OK();
}

Status DataFrame::DropColumn(int index) {
  if (index < 0 || index >= NumCols()) {
    return Status::OutOfRange("column index " + std::to_string(index));
  }
  columns_.erase(columns_.begin() + index);
  names_.erase(names_.begin() + index);
  if (columns_.empty()) num_rows_ = 0;
  return Status::OK();
}

const std::vector<double>& DataFrame::Col(int index) const {
  FASTFT_CHECK_GE(index, 0);
  FASTFT_CHECK_LT(index, NumCols());
  return columns_[index];
}

std::vector<double>& DataFrame::MutableCol(int index) {
  FASTFT_CHECK_GE(index, 0);
  FASTFT_CHECK_LT(index, NumCols());
  return columns_[index];
}

const std::string& DataFrame::Name(int index) const {
  FASTFT_CHECK_GE(index, 0);
  FASTFT_CHECK_LT(index, NumCols());
  return names_[index];
}

int DataFrame::FindColumn(const std::string& name) const {
  for (int i = 0; i < NumCols(); ++i) {
    if (names_[i] == name) return i;
  }
  return -1;
}

std::vector<double> DataFrame::Row(int row) const {
  FASTFT_CHECK_GE(row, 0);
  FASTFT_CHECK_LT(row, num_rows_);
  std::vector<double> out(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) out[c] = columns_[c][row];
  return out;
}

DataFrame DataFrame::SelectColumns(const std::vector<int>& indices) const {
  DataFrame out;
  for (int idx : indices) {
    FASTFT_CHECK_GE(idx, 0);
    FASTFT_CHECK_LT(idx, NumCols());
    FASTFT_CHECK(out.AddColumn(names_[idx], columns_[idx]).ok());
  }
  return out;
}

std::vector<std::vector<double>> DataFrame::ToRows() const {
  std::vector<std::vector<double>> rows(
      num_rows_, std::vector<double>(columns_.size()));
  for (size_t c = 0; c < columns_.size(); ++c) {
    for (int r = 0; r < num_rows_; ++r) rows[r][c] = columns_[c][r];
  }
  return rows;
}

}  // namespace fastft
