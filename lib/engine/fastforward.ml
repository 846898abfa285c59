type mode = Off

let to_string Off = "off"

let of_string s =
  match String.lowercase_ascii s with "off" | "0" | "false" -> Some Off | _ -> None

let get_default () = Off
