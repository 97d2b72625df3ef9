exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

(* --- tokenizing ------------------------------------------------------ *)

let tokens_of_line line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let attr line key tokens =
  List.find_map
    (fun t ->
      match String.index_opt t '=' with
      | Some i when String.sub t 0 i = key ->
          Some (String.sub t (i + 1) (String.length t - i - 1))
      | _ -> None)
    tokens
  |> function
  | Some v -> v
  | None -> fail line "missing attribute %s=" key

let attr_opt key tokens =
  List.find_map
    (fun t ->
      match String.index_opt t '=' with
      | Some i when String.sub t 0 i = key ->
          Some (String.sub t (i + 1) (String.length t - i - 1))
      | _ -> None)
    tokens

let int_attr line key tokens =
  let v = attr line key tokens in
  match int_of_string_opt v with
  | Some i -> i
  | None -> fail line "attribute %s expects an integer, got %S" key v

let float_attr line key tokens =
  let v = attr line key tokens in
  match float_of_string_opt v with
  | Some f -> f
  | None -> fail line "attribute %s expects a number, got %S" key v

let float_attr_opt line key tokens =
  match attr_opt key tokens with
  | None -> None
  | Some v -> (
      match float_of_string_opt v with
      | Some f -> Some f
      | None -> fail line "attribute %s expects a number, got %S" key v)

(* [attr] is find-first, so a repeated key would silently win by position;
   reject it instead, naming the offending token by 0-based index. *)
let reject_dup_keys line stmt tokens =
  let seen = Hashtbl.create 8 in
  List.iteri
    (fun i t ->
      match String.index_opt t '=' with
      | Some j -> (
          let key = String.sub t 0 j in
          match Hashtbl.find_opt seen key with
          | Some first ->
              fail line
                "duplicate %s key %S at token %d (0-based; first at token %d)"
                stmt key i first
          | None -> Hashtbl.replace seen key i)
      | None -> ())
    tokens

(* --- parsing state --------------------------------------------------- *)

type state = {
  mutable builder : Chop_dfg.Graph.builder option;
  mutable width : int;
  mutable node_ids : (string * Chop_dfg.Graph.node_id) list;
  mutable chips : Spec.chip_instance list;
  mutable memories : Chop_tech.Memory.t list;
  mutable memory_hosts : (string * string) list;
  mutable partitions : (string * string list) list;  (** label -> node names *)
  mutable assignment : (string * string) list;
  mutable extra_components : Chop_tech.Component.t list;
  mutable base_library : Chop_tech.Component.library;
  mutable processors : Chop_model_sw.Processor.t list;
  mutable impls : (string * string) list;
  mutable clocks : Chop_tech.Clocking.t;
  mutable style : Chop_tech.Style.t;
  mutable criteria : Chop_bad.Feasibility.criteria option;
  mutable params : Spec.params;
}

let initial () =
  {
    builder = None;
    width = 16;
    node_ids = [];
    chips = [];
    memories = [];
    memory_hosts = [];
    partitions = [];
    assignment = [];
    extra_components = [];
    base_library = Chop_tech.Mosis.experiment_library;
    processors = [];
    impls = [];
    clocks = Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1;
    style = Chop_tech.Style.both Chop_tech.Style.Multi_cycle;
    criteria = None;
    params = Spec.default_params;
  }

let op_of_string line s =
  let prefixed p =
    if
      String.length s > String.length p
      && String.sub s 0 (String.length p) = p
    then Some (String.sub s (String.length p) (String.length s - String.length p))
    else None
  in
  match s with
  | "input" -> Chop_dfg.Op.Input
  | "output" -> Chop_dfg.Op.Output
  | "const" -> Chop_dfg.Op.Const
  | "add" -> Chop_dfg.Op.Add
  | "sub" -> Chop_dfg.Op.Sub
  | "mult" -> Chop_dfg.Op.Mult
  | "div" -> Chop_dfg.Op.Div
  | "compare" -> Chop_dfg.Op.Compare
  | "logic" -> Chop_dfg.Op.Logic
  | "shift" -> Chop_dfg.Op.Shift
  | "select" -> Chop_dfg.Op.Select
  | _ -> (
      match prefixed "mem_read:" with
      | Some b -> Chop_dfg.Op.Mem_read b
      | None -> (
          match prefixed "mem_write:" with
          | Some b -> Chop_dfg.Op.Mem_write b
          | None -> fail line "unknown operation %S" s))

let parse_die line v =
  match String.split_on_char 'x' v with
  | [ w; h ] -> (
      match (float_of_string_opt w, float_of_string_opt h) with
      | Some w, Some h -> (w, h)
      | _ -> fail line "die expects WxH, got %S" v)
  | _ -> fail line "die expects WxH, got %S" v

let statement st line = function
  | [] -> ()
  | "graph" :: name :: rest ->
      if st.builder <> None then fail line "duplicate graph statement";
      st.width <- (match attr_opt "width" rest with
        | Some w -> (match int_of_string_opt w with
            | Some i -> i
            | None -> fail line "width expects an integer")
        | None -> 16);
      st.builder <- Some (Chop_dfg.Graph.builder ~name ())
  | "node" :: name :: op :: operands -> (
      match st.builder with
      | None -> fail line "node before graph"
      | Some b ->
          if List.mem_assoc name st.node_ids then fail line "duplicate node %S" name;
          let op = op_of_string line op in
          let id =
            try Chop_dfg.Graph.add_node b ~name ~op ~width:st.width
            with Invalid_argument reason -> fail line "%s" reason
          in
          List.iter
            (fun operand ->
              match List.assoc_opt operand st.node_ids with
              | Some src -> Chop_dfg.Graph.add_edge b ~src ~dst:id
              | None -> fail line "node %S uses undeclared operand %S" name operand)
            operands;
          st.node_ids <- (name, id) :: st.node_ids)
  | "chip" :: name :: rest ->
      let package =
        match rest with
        | [ "pkg64" ] -> Chop_tech.Mosis.package_64
        | [ "pkg84" ] -> Chop_tech.Mosis.package_84
        | _ ->
            let w, h = parse_die line (attr line "die" rest) in
            (try
               Chop_tech.Chip.make ~name:(name ^ "_pkg") ~width:w ~height:h
                 ~pins:(int_attr line "pins" rest)
                 ~pad_delay:(float_attr line "pad_delay" rest)
                 ~pad_area:(float_attr line "pad_area" rest)
             with Invalid_argument reason -> fail line "%s" reason)
      in
      st.chips <- st.chips @ [ { Spec.chip_name = name; package } ]
  | "memory" :: name :: rest ->
      let placement, host =
        match (attr_opt "on_chip" rest, attr_opt "off_chip_pins" rest) with
        | Some area, None -> (
            match float_of_string_opt area with
            | Some a ->
                (Chop_tech.Memory.On_chip a, Some (attr line "host" rest))
            | None -> fail line "on_chip expects an area")
        | None, Some pins -> (
            match int_of_string_opt pins with
            | Some p -> (Chop_tech.Memory.Off_chip_package p, None)
            | None -> fail line "off_chip_pins expects an integer")
        | _ -> fail line "memory needs exactly one of on_chip= / off_chip_pins="
      in
      let m =
        try
          Chop_tech.Memory.make ~name ~words:(int_attr line "words" rest)
            ~word_width:(int_attr line "width" rest)
            ~ports:(int_attr line "ports" rest)
            ~access:(float_attr line "access" rest)
            ~placement
        with Invalid_argument reason -> fail line "%s" reason
      in
      st.memories <- st.memories @ [ m ];
      (match host with
      | Some h -> st.memory_hosts <- (name, h) :: st.memory_hosts
      | None -> ())
  | "partition" :: label :: "=" :: names ->
      (* node names never contain '='; key=value tokens here are
         per-partition fields from a newer format revision — tolerate and
         drop them so older binaries can restore newer snapshots *)
      let names = List.filter (fun t -> not (String.contains t '=')) names in
      if names = [] then fail line "empty partition %S" label;
      st.partitions <- st.partitions @ [ (label, names) ]
  | [ "assign"; label; chip ] ->
      st.assignment <- st.assignment @ [ (label, chip) ]
  | "component" :: name :: rest ->
      let c =
        try
          Chop_tech.Component.make ~name
            ~cls:(attr line "class" rest)
            ~width:(int_attr line "width" rest)
            ~area:(float_attr line "area" rest)
            ~delay:(float_attr line "delay" rest)
            ()
        with Invalid_argument reason -> fail line "%s" reason
      in
      st.extra_components <- st.extra_components @ [ c ]
  | "processor" :: name :: rest ->
      reject_dup_keys line "processor" rest;
      let p =
        try
          Chop_model_sw.Processor.make ~name
            ~issue_slots:(int_attr line "issue" rest)
            ~cycle_ns:(float_attr line "cycle" rest)
            ~code_bytes_per_op:(int_attr line "code" rest)
            ~data_bytes_per_value:(int_attr line "data" rest)
            ~memory_budget_bytes:(float_attr line "mem" rest)
            ~bus_bits:(int_attr line "bus" rest)
        with Invalid_argument reason -> fail line "%s" reason
      in
      if
        List.exists
          (fun q -> q.Chop_model_sw.Processor.pname = name)
          st.processors
      then fail line "duplicate processor %S" name;
      st.processors <- st.processors @ [ p ]
  | [ "impl"; label; model ] ->
      if
        model <> "hw"
        && not
             (List.exists
                (fun p -> p.Chop_model_sw.Processor.pname = model)
                st.processors)
      then
        fail line "impl %s references unknown model %S (declare the processor first)"
          label model;
      st.impls <- st.impls @ [ (label, model) ]
  | [ "library"; which ] ->
      st.base_library <-
        (match which with
        | "table1" -> Chop_tech.Mosis.experiment_library
        | "extended" -> Chop_tech.Mosis.extended_library
        | "none" -> []
        | _ -> fail line "library expects table1, extended or none, got %S" which)
  | "clock" :: rest ->
      st.clocks <-
        (try
           Chop_tech.Clocking.make
             ~main:(float_attr line "main" rest)
             ~datapath_ratio:(int_attr line "datapath" rest)
             ~transfer_ratio:(int_attr line "transfer" rest)
         with Invalid_argument reason -> fail line "%s" reason)
  | [ "style"; which ] ->
      st.style <-
        (match which with
        | "single_cycle" -> Chop_tech.Style.both Chop_tech.Style.Single_cycle
        | "multi_cycle" -> Chop_tech.Style.both Chop_tech.Style.Multi_cycle
        | _ -> fail line "style expects single_cycle or multi_cycle")
  | "criteria" :: rest ->
      reject_dup_keys line "criteria" rest;
      st.criteria <-
        Some
          (try
             Chop_bad.Feasibility.criteria
               ?perf_prob:(float_attr_opt line "perf_prob" rest)
               ?area_prob:(float_attr_opt line "area_prob" rest)
               ?delay_prob:(float_attr_opt line "delay_prob" rest)
               ?power_budget:(float_attr_opt line "power_budget" rest)
               ~perf:(float_attr line "perf" rest)
               ~delay:(float_attr line "delay" rest)
               ()
           with Invalid_argument reason -> fail line "%s" reason)
  | "params" :: rest ->
      let get key default =
        match attr_opt key rest with
        | None -> default
        | Some v -> (
            match int_of_string_opt v with
            | Some i -> i
            | None -> fail line "%s expects an integer" key)
      in
      let testability =
        match float_attr_opt line "testability" rest with
        | Some t -> t
        | None -> st.params.Spec.testability_overhead
      in
      st.params <-
        {
          st.params with
          Spec.alloc_cap = get "alloc_cap" st.params.Spec.alloc_cap;
          max_pipelined_iis = get "max_iis" st.params.Spec.max_pipelined_iis;
          testability_overhead = testability;
        }
  | keyword :: _ -> fail line "unknown statement %S" keyword

let parse contents =
  let st = initial () in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let tokens = tokens_of_line (strip_comment raw) in
      statement st line tokens)
    (String.split_on_char '\n' contents);
  let builder =
    match st.builder with
    | Some b -> b
    | None -> raise (Parse_error (0, "no graph statement"))
  in
  let graph =
    try Chop_dfg.Graph.build builder
    with Chop_dfg.Graph.Invalid_graph reason -> raise (Parse_error (0, reason))
  in
  let resolve_node label name =
    match List.assoc_opt name st.node_ids with
    | Some id -> id
    | None ->
        raise
          (Parse_error
             (0, Printf.sprintf "partition %s references unknown node %S" label name))
  in
  let parts =
    List.map
      (fun (label, names) ->
        Chop_dfg.Partition.make ~label (List.map (resolve_node label) names))
      st.partitions
  in
  if parts = [] then raise (Parse_error (0, "no partition statements"));
  let partitioning =
    try Chop_dfg.Partition.partitioning graph parts
    with Chop_dfg.Partition.Invalid_partitioning reason ->
      raise (Parse_error (0, reason))
  in
  let criteria =
    match st.criteria with
    | Some c -> c
    | None -> raise (Parse_error (0, "no criteria statement"))
  in
  try
    Spec.make ~params:st.params ~memories:st.memories
      ~memory_hosts:st.memory_hosts ~graph
      ~library:(st.extra_components @ st.base_library)
      ~chips:st.chips ~partitioning ~assignment:st.assignment
      ~processors:st.processors ~impls:st.impls ~clocks:st.clocks
      ~style:st.style ~criteria ()
  with Invalid_argument reason -> raise (Parse_error (0, reason))

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  parse contents

(* --- printing --------------------------------------------------------- *)

let op_to_string = function
  | Chop_dfg.Op.Input -> "input"
  | Chop_dfg.Op.Output -> "output"
  | Chop_dfg.Op.Const -> "const"
  | Chop_dfg.Op.Add -> "add"
  | Chop_dfg.Op.Sub -> "sub"
  | Chop_dfg.Op.Mult -> "mult"
  | Chop_dfg.Op.Div -> "div"
  | Chop_dfg.Op.Compare -> "compare"
  | Chop_dfg.Op.Logic -> "logic"
  | Chop_dfg.Op.Shift -> "shift"
  | Chop_dfg.Op.Select -> "select"
  | Chop_dfg.Op.Mem_read b -> "mem_read:" ^ b
  | Chop_dfg.Op.Mem_write b -> "mem_write:" ^ b

let print (spec : Spec.t) =
  let buf = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* every float in its shortest exact form, so parse reads back the
     same value (an acknowledged [criteria 4029.273 …] edit stays
     4029.273 through a snapshot) *)
  let num = Chop_util.Json.shortest_float in
  let g = spec.Spec.graph in
  let width =
    List.fold_left (fun acc n -> max acc n.Chop_dfg.Graph.width) 1
      (Chop_dfg.Graph.nodes g)
  in
  addf "# chopspec — generated\n";
  addf "graph %s width=%d\n" (Chop_dfg.Graph.name g) width;
  let node_name id = Printf.sprintf "n%d" id in
  List.iter
    (fun n ->
      addf "node %s %s%s\n" (node_name n.Chop_dfg.Graph.id)
        (op_to_string n.Chop_dfg.Graph.op)
        (String.concat ""
           (List.map (fun p -> " " ^ node_name p)
              (Chop_dfg.Graph.preds g n.Chop_dfg.Graph.id))))
    (Chop_dfg.Graph.nodes g);
  List.iter
    (fun ci ->
      let p = ci.Spec.package in
      addf "chip %s pins=%d die=%sx%s pad_delay=%s pad_area=%s\n"
        ci.Spec.chip_name p.Chop_tech.Chip.pins (num p.Chop_tech.Chip.width)
        (num p.Chop_tech.Chip.height) (num p.Chop_tech.Chip.pad_delay)
        (num p.Chop_tech.Chip.pad_area))
    spec.Spec.chips;
  List.iter
    (fun m ->
      let placement =
        match m.Chop_tech.Memory.placement with
        | Chop_tech.Memory.On_chip a ->
            Printf.sprintf "on_chip=%s host=%s" (num a)
              (Option.value ~default:"?"
                 (Spec.memory_host spec m.Chop_tech.Memory.mname))
        | Chop_tech.Memory.Off_chip_package p ->
            Printf.sprintf "off_chip_pins=%d" p
      in
      addf "memory %s words=%d width=%d ports=%d access=%s %s\n"
        m.Chop_tech.Memory.mname m.Chop_tech.Memory.words
        m.Chop_tech.Memory.word_width m.Chop_tech.Memory.ports
        (num m.Chop_tech.Memory.access) placement)
    spec.Spec.memories;
  List.iter
    (fun p ->
      addf "partition %s =%s\n" p.Chop_dfg.Partition.label
        (String.concat ""
           (List.map (fun id -> " " ^ node_name id) p.Chop_dfg.Partition.members)))
    spec.Spec.partitioning.Chop_dfg.Partition.parts;
  List.iter (fun (l, c) -> addf "assign %s %s\n" l c) spec.Spec.assignment;
  addf "library none\n";
  List.iter
    (fun c ->
      addf "component %s class=%s width=%d area=%s delay=%s\n"
        c.Chop_tech.Component.cname c.Chop_tech.Component.cls
        c.Chop_tech.Component.width (num c.Chop_tech.Component.area)
        (num c.Chop_tech.Component.delay))
    spec.Spec.library;
  List.iter
    (fun p ->
      addf "processor %s issue=%d cycle=%s code=%d data=%d mem=%s bus=%d\n"
        p.Chop_model_sw.Processor.pname p.Chop_model_sw.Processor.issue_slots
        (num p.Chop_model_sw.Processor.cycle_ns)
        p.Chop_model_sw.Processor.code_bytes_per_op
        p.Chop_model_sw.Processor.data_bytes_per_value
        (num p.Chop_model_sw.Processor.memory_budget_bytes)
        p.Chop_model_sw.Processor.bus_bits)
    spec.Spec.processors;
  List.iter (fun (l, m) -> addf "impl %s %s\n" l m) spec.Spec.impls;
  addf "clock main=%s datapath=%d transfer=%d\n"
    (num spec.Spec.clocks.Chop_tech.Clocking.main)
    spec.Spec.clocks.Chop_tech.Clocking.datapath_ratio
    spec.Spec.clocks.Chop_tech.Clocking.transfer_ratio;
  addf "style %s\n"
    (match spec.Spec.style.Chop_tech.Style.op_timing with
    | Chop_tech.Style.Single_cycle -> "single_cycle"
    | Chop_tech.Style.Multi_cycle -> "multi_cycle");
  let c = spec.Spec.criteria in
  addf "criteria perf=%s delay=%s perf_prob=%s area_prob=%s delay_prob=%s%s\n"
    (num c.Chop_bad.Feasibility.perf_constraint)
    (num c.Chop_bad.Feasibility.delay_constraint)
    (num c.Chop_bad.Feasibility.perf_prob)
    (num c.Chop_bad.Feasibility.area_prob)
    (num c.Chop_bad.Feasibility.delay_prob)
    (match c.Chop_bad.Feasibility.power_budget with
    | Some b -> " power_budget=" ^ num b
    | None -> "");
  addf "params alloc_cap=%d max_iis=%d testability=%s\n"
    spec.Spec.params.Spec.alloc_cap spec.Spec.params.Spec.max_pipelined_iis
    (num spec.Spec.params.Spec.testability_overhead);
  Buffer.contents buf
