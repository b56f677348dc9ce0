let golden ?miller_factor tech = Device_model.analytic ?miller_factor tech

let table ?miller_factor ?grid_step tech =
  let nmos = Table_model.of_analytic ?grid_step tech Mosfet.N in
  let pmos = Table_model.of_analytic ?grid_step tech Mosfet.P in
  Table_model.to_device_model ?miller_factor tech ~nmos ~pmos
