type kind = Calendar

let to_string Calendar = "calendar"

let of_string s =
  match String.lowercase_ascii s with
  | "calendar" | "cal" -> Some Calendar
  | _ -> None

let get_default () = Calendar
